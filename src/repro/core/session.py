"""DuelSession: the ``duel`` command.

"The duel command is similar to gdb's print command, except that the
duel command drives its expression argument and prints all of its
values."  A session compiles an input line, drives the resulting
generator tree, and renders one output line per produced value in the
paper's format::

    x[3] = 7
    hash[42]->scope = 7

Display rule reconstructed from the paper's sessions: expressions that
mention no program state (no names — pure constant expressions like
``(1..3)+(5,9)`` or ``1 + (double)3/2``) print their values joined on
one line (``6 10 7 11 8 12``, ``2.500``); anything touching the target
prints one ``sym = value`` line per value.  A value whose symbolic
expression renders identically to the value (reductions) also prints
bare.

Aliases persist across ``duel`` commands within a session, as in the
original.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Iterator, Optional

from repro.core import nodes as N
from repro.core.errors import DuelCancelled, DuelError, DuelTruncation
from repro.core.eval import _KEEP_DEFAULT, EvalOptions, Evaluator
from repro.core.format import ValueFormatter
from repro.core.parser import DuelParser
from repro.core.symbolic import DEFAULT_FOLD
from repro.core.values import DuelValue
from repro.obs.access import (DEFAULT_PAGE_SIZE, AccessLog, AccessTracer,
                              advise, compact_profile)
from repro.obs.metrics import MetricsRegistry, registry as process_registry
from repro.obs.qlog import QueryLog, classify
from repro.obs.recorder import FlightRecorder, should_dump
from repro.obs.trace import QueryTracer, RingBufferSink, TraceSink


class DuelSession:
    """An interactive DUEL evaluation session over one debugger backend.

    Parameters mirror the implementation switches discussed in the
    paper: ``symbolic`` turns derivation tracking off (it dominates
    evaluation cost), ``fold`` sets the ``->a->a`` folding threshold,
    and ``float_format`` controls double rendering (the paper prints
    ``2.500``; gdb prints ``2.5`` — default matches the paper).
    """

    def __init__(self, backend, symbolic: bool = True,
                 float_format: str = "%.3f", fold: int = DEFAULT_FOLD,
                 max_steps: int = 10_000_000, cycle_mode: str = "stop",
                 optimize: bool = False, deadline_ms=_KEEP_DEFAULT,
                 max_lines=_KEEP_DEFAULT,
                 metrics: Optional[MetricsRegistry] = None):
        self.backend = backend
        self.options = EvalOptions(symbolic=symbolic, max_steps=max_steps,
                                   cycle_mode=cycle_mode,
                                   deadline_ms=deadline_ms,
                                   max_lines=max_lines)
        #: The per-query resource governor (limits, counters, ^C token).
        self.governor = self.options.governor
        #: Compile-time constant folding (paper §Implementation: "could
        #: be done at compile time"); display text is preserved.
        self.optimize = optimize
        self.evaluator = Evaluator(backend, self.options)
        self.parser = DuelParser(is_type_name=self.evaluator.is_type_name)
        self.formatter = ValueFormatter(self.evaluator.ops,
                                        float_format=float_format)
        self.evaluator.formatter = self.formatter
        self.fold = fold
        #: Executed query texts, newest last (the paper's Discussion
        #: suggests a query history for re-issuing common queries).
        self.history: list[str] = []
        #: Named saved queries ("program-specific queries ... made by
        #: simply pointing and clicking" — here, by name).
        self.saved: dict[str, str] = {}
        #: Where cross-query aggregates land (default: the shared
        #: process-level registry; pass your own for isolation).
        self.metrics = metrics if metrics is not None \
            else process_registry()
        #: Trace every query driven by :meth:`duel` (REPL ``trace on``).
        self.tracing = False
        #: Sink receiving trace events while :attr:`tracing` is on;
        #: None means a fresh in-memory ring per query.
        self.trace_sink: Optional[TraceSink] = None
        #: The tracer of the most recent traced query.
        self.last_trace: Optional[QueryTracer] = None
        #: Per-query stats of the most recent :meth:`duel`/:meth:`explain`
        #: query: governor counters plus target-traffic/lookup deltas.
        self.last_query_stats: dict = {}
        #: Per-phase (parse/eval/format) milliseconds of that query.
        self.last_query_phases: dict = {}
        #: Structured query log receiving one JSONL record per query
        #: lifecycle event (``--query-log`` / ``qlog on``); None = off,
        #: at the cost of a single predicate per query.
        self.qlog: Optional[QueryLog] = None
        #: Flight recorder of recent completed queries; None = off.
        #: Attaching one also turns per-query tracing on, so recorded
        #: entries (and post-mortem dumps) carry EXPLAIN profile trees.
        self.recorder: Optional[FlightRecorder] = None
        #: Statement-statistics table (``repro.obs.statements``); None
        #: = off at the cost of one predicate per query.  The serve
        #: layer shares one table across every client session.
        self.statements = None
        #: Fingerprint of the most recent compiled query (set only
        #: while qlog or statements observation is on).
        self.last_fingerprint = None
        #: Wire trace id of the in-flight query (set by the serve
        #: layer so qlog terminal records carry it; None in-process).
        self.current_trace_id: Optional[str] = None
        #: Memory-access profile exporter (``--access-trace``); None =
        #: off at the cost of one predicate per query.  When attached,
        #: its head-sampling coin decides which queries run with the
        #: access tracer on.
        self.accesslog: Optional[AccessLog] = None
        #: Page size (bytes) access profiles aggregate locality at.
        self.access_page_size = DEFAULT_PAGE_SIZE
        #: Access profile of the most recent access-traced query, and
        #: the raw records behind it (the prefetch advisor replays
        #: them); None when the last query ran untraced.
        self.last_access: Optional[dict] = None
        self.last_access_records: list = []
        self._format_ns = 0

    # -- compiling ------------------------------------------------------
    def compile(self, text: str) -> N.Node:
        """Parse one DUEL input line into an AST (folded if enabled)."""
        node = self.parser.parse(text)
        if self.optimize:
            from repro.core.optimize import fold as fold_constants
            node = fold_constants(node)
        return node

    # -- evaluation -------------------------------------------------------
    def eval(self, text: str) -> list[DuelValue]:
        """Drive ``text`` and collect every produced value."""
        return list(self.ieval(text))

    def ieval(self, text: str) -> Iterator[DuelValue]:
        """Drive ``text`` lazily."""
        node = self.compile(text)
        self._record(text)
        self.evaluator.reset()
        yield from self.evaluator.eval(node)

    def _record(self, text: str) -> None:
        if not self.history or self.history[-1] != text:
            self.history.append(text)

    def eval_values(self, text: str):
        """Raw Python values (ints/floats/addresses) of ``text``."""
        ops = self.evaluator.ops
        return [ops.load(v) for v in self.ieval(text)]

    # -- printing ------------------------------------------------------------
    def format_line(self, v: DuelValue) -> str:
        """One output line for a produced value: ``sym = value``."""
        value_text = self.formatter.format(v)
        if not self.options.symbolic:
            return value_text
        sym_text = v.sym.render(self.fold)
        if sym_text == value_text or sym_text == "?":
            return value_text
        return f"{sym_text} = {value_text}"

    def eval_lines(self, text: str) -> list[str]:
        """All output lines for one ``duel`` command (paper format).

        Constant-only expressions produce a single space-joined line of
        values, reproducing the paper's ``duel (1..3)+(5,9)`` session.
        """
        return list(self.ieval_lines(text))

    def ieval_lines(self, text: str) -> Iterator[str]:
        """Output lines, produced lazily as the generator tree drives."""
        node = self.compile(text)
        self._record(text)
        self.evaluator.reset()
        yield from self._lines(node)

    def _lines(self, node: N.Node) -> Iterator[str]:
        """Output lines, metered: every printed value charges the
        governor's output quota and hits a cancellation/deadline
        checkpoint, so even a target-free ``1..`` stays interruptible.
        A truncation mid-stream keeps the partial output (the
        constants-only joined line included) and carries the produced
        count out on the exception for the diagnostic line."""
        values = self.evaluator.eval(node)
        governor = self.governor
        clock = perf_counter_ns
        produced = 0
        try:
            if self.options.symbolic and not _mentions_state(node):
                texts: list[str] = []
                try:
                    for v in values:
                        governor.checkpoint()
                        governor.charge("lines")
                        t0 = clock()
                        texts.append(self.formatter.format(v))
                        self._format_ns += clock() - t0
                        produced += 1
                except DuelTruncation:
                    if texts:
                        yield " ".join(texts)
                    raise
                if texts:
                    yield " ".join(texts)
                return
            for v in values:
                governor.checkpoint()
                governor.charge("lines")
                t0 = clock()
                line = self.format_line(v)
                self._format_ns += clock() - t0
                produced += 1
                yield line
        except DuelTruncation as truncation:
            if truncation.produced is None:
                truncation.produced = produced
            raise

    def ievents(self, text: str, on_begin=None,
                access: bool = False) -> Iterator[tuple]:
        """Drive one query as a stream of ``(kind, payload)`` events.

        The full recovering drive of :meth:`duel` — governor, qlog,
        tracer, metrics, flight recorder, failed-query rollback — as a
        lazy event stream instead of writes to a text stream, so a
        front end that is *not* a terminal (the ``repro.serve`` query
        service) can multiplex queries without re-implementing the
        lifecycle.  Events, in order:

        ``("value", line)``
            one per output line, produced as the generator tree drives;
        exactly one terminal event closing the query:
            ``("done", info)`` — drained completely;
            ``("truncated", info)`` / ``("cancelled", info)`` — a
            governor limit or the cancel token stopped it; partial
            values stand and ``info["diagnostic"]`` holds the one-line
            notice;
            ``("faulted", info)`` — a mid-drive :class:`DuelError`
            (side effects rolled back, ``info["error"]`` set);
            ``("error", info)`` — the text never compiled
            (``info["error"]`` set, nothing was driven).

        ``info`` always carries ``values`` (lines actually produced)
        and, for driven queries, ``stats``/``phases`` snapshots.
        ``on_begin`` (when given) runs after the governor reset but
        before the first value is pulled — the serve layer uses it to
        close the race between a ``cancel`` frame and query start.
        ``access=True`` forces the memory-access tracer on for this
        query (the ``accesses`` command); otherwise the access log's
        sampling coin decides, and with no access log attached the
        cost is one predicate.
        """
        self.governor.begin_query()
        self.last_query_stats = {}
        self.last_fingerprint = None
        self.last_access = None
        qlog = self.qlog
        qid = qlog.begin(text, "generator") if qlog is not None else None
        t0 = perf_counter_ns()
        try:
            node = self.compile(text)
        except DuelError as error:
            if qid is not None:
                qlog.end(qid, "rejected", error=error,
                         trace_id=self.current_trace_id)
            yield ("error", {"values": 0, "error": str(error),
                             "error_type": type(error).__name__})
            return
        parse_ns = perf_counter_ns() - t0
        if qid is not None:
            qlog.parsed(qid, parse_ns / 1e6, node)
        if access or qid is not None or self.statements is not None \
                or self.accesslog is not None:
            from repro.obs.fingerprint import fingerprint as _fingerprint
            self.last_fingerprint = _fingerprint(node)
        self._record(text)
        if on_begin is not None:
            on_begin()
        tracer = self._attach_tracer(node, text)
        accesslog = self.accesslog
        if access or (accesslog is not None and accesslog.sample_next()):
            tracer, atracer = self._attach_access(node, text, tracer)
        else:
            atracer = None
        checkpoint = self._checkpoint_for(node)
        self.evaluator.reset()
        baseline = self._stats_baseline()
        produced = 0
        failure = None
        drive_t0 = perf_counter_ns()
        try:
            for line in self._lines(node):
                produced += 1
                yield ("value", line)
        except DuelTruncation as truncation:
            failure = truncation
            if truncation.produced is not None:
                produced = truncation.produced
        except DuelError as error:
            failure = error
            self._restore(checkpoint)
        except GeneratorExit:
            # The consumer abandoned the stream mid-drive (a serve
            # worker unwound, a client vanished): that is a
            # cancellation in the audit trail, never a clean drain.
            failure = DuelCancelled("drive abandoned")
            raise
        finally:
            self._finish_query(tracer, baseline, parse_ns,
                               perf_counter_ns() - drive_t0)
            if atracer is not None:
                self._finish_access(atracer)
            if qid is not None or self.recorder is not None \
                    or self.statements is not None \
                    or self.last_access is not None:
                self._observe_query(qid, text, failure, tracer)
        outcome, kind = classify(failure)
        info: dict = {"values": produced,
                      "stats": dict(self.last_query_stats),
                      "phases": dict(self.last_query_phases)}
        if kind is not None:
            info["kind"] = kind
        if self.last_access is not None:
            info["access"] = dict(self.last_access)
            if access:
                # Explicitly requested profiles (the ``accesses``
                # command/op) carry the advisor sweep; sampled ones
                # stay cheap.
                info["advisor"] = advise(self.last_access_records)
        if outcome == "drained":
            yield ("done", info)
        elif outcome in ("truncated", "cancelled"):
            info["diagnostic"] = failure.diagnostic(produced)
            yield (outcome, info)
        else:
            info["error"] = str(failure)
            info["error_type"] = type(failure).__name__
            yield ("faulted", info)

    def duel(self, text: str, out=None) -> None:
        """The gdb ``duel`` command: evaluate and print — robustly.

        Drives the expression lazily, printing each value as it is
        produced, so a ``DuelError`` mid-drive still reports every
        partial result already yielded before the error line.  For
        side-effecting queries (assignments, increments, target calls,
        declarations) a target snapshot is taken first and restored on
        error, so a failed query never leaves the debuggee
        half-mutated; the session stays usable either way.

        A governor limit tripping under the ``truncate`` policy (or a
        ^C on the cancel token) is *not* an error: driving stops, the
        partial results stand — effects already applied are kept, as
        under the paper's gdb ^C — and one diagnostic line reports
        what stopped the query and how to raise the limit.

        This is the terminal rendering of :meth:`ievents`: values
        print as they stream, truncations print their diagnostic,
        faults print the error line.
        """
        import sys
        stream = out if out is not None else sys.stdout
        for kind, payload in self.ievents(text):
            if kind == "value":
                stream.write(payload + "\n")
            elif kind in ("truncated", "cancelled"):
                stream.write(payload["diagnostic"] + "\n")
            elif kind in ("faulted", "error"):
                stream.write(payload["error"] + "\n")

    def explain(self, text: str, out=None) -> None:
        """Run ``text`` traced and print its per-node profile tree.

        The query is driven exactly like :meth:`duel` — quotas,
        rollback and truncation all apply — but the output lines are
        swallowed; what prints instead is the annotated AST profile
        (pulls, yields, time share, attributed target reads per node)
        and a one-line summary, the REPL's ``explain`` command.
        """
        import sys
        from repro.obs.explain import profile_footer, render_profile
        stream = out if out is not None else sys.stdout
        self.governor.begin_query()
        self.last_query_stats = {}
        self.last_fingerprint = None
        self.last_access = None
        qlog = self.qlog
        qid = qlog.begin(text, "generator") if qlog is not None else None
        t0 = perf_counter_ns()
        try:
            node = self.compile(text)
        except DuelError as error:
            if qid is not None:
                qlog.end(qid, "rejected", error=error)
            stream.write(str(error) + "\n")
            return
        parse_ns = perf_counter_ns() - t0
        if qid is not None:
            qlog.parsed(qid, parse_ns / 1e6, node)
        if qid is not None or self.statements is not None:
            from repro.obs.fingerprint import fingerprint as _fingerprint
            self.last_fingerprint = _fingerprint(node)
        self._record(text)
        # Reuse the session sink (--trace-json) when one is attached;
        # span aggregates alone are enough for the profile otherwise.
        tracer = QueryTracer(self.trace_sink)
        tracer.begin(node, text)
        self.evaluator.set_tracer(tracer)
        checkpoint = self._checkpoint_for(node)
        self.evaluator.reset()
        baseline = self._stats_baseline()
        note = None
        failure = None
        drive_t0 = perf_counter_ns()
        try:
            for _ in self._lines(node):
                pass
        except DuelTruncation as truncation:
            failure = truncation
            produced = truncation.produced if truncation.produced \
                is not None else self.governor.lines
            note = truncation.diagnostic(produced)
        except DuelError as error:
            failure = error
            self._restore(checkpoint)
            note = str(error)
        finally:
            self._finish_query(tracer, baseline, parse_ns,
                               perf_counter_ns() - drive_t0)
            if qid is not None or self.recorder is not None \
                    or self.statements is not None:
                self._observe_query(qid, text, failure, tracer)
        for line in render_profile(node, tracer):
            stream.write(line + "\n")
        stats = self.last_query_stats
        stream.write(profile_footer(stats.get("lines", 0),
                                    stats.get("wall_ms", 0.0), stats) + "\n")
        if note is not None:
            stream.write(note + "\n")

    # -- per-query accounting ------------------------------------------------
    def _attach_tracer(self, node: N.Node,
                       text: str) -> Optional[QueryTracer]:
        """A fresh per-query tracer when tracing or the recorder is on.

        The flight recorder implies tracing (its entries carry the
        query's profile tree), but with a much smaller event ring —
        post-mortems want the span aggregates plus a short tail of
        events, not 64k of them per query.
        """
        recorder = self.recorder
        if not self.tracing and recorder is None:
            return None
        sink = self.trace_sink
        if sink is None:
            capacity = 65536 if self.tracing else recorder.ring_capacity
            sink = RingBufferSink(capacity)
        tracer = QueryTracer(sink)
        tracer.begin(node, text)
        self.evaluator.set_tracer(tracer)
        return tracer

    def _attach_access(self, node: N.Node, text: str, tracer):
        """Arm the memory-access tracer for this query.

        Access records carry the preorder index of the AST node being
        pulled, which lives on the engine tracer's span stack — so a
        query profiled without ``trace on`` gets a bare (sinkless)
        :class:`QueryTracer` for attribution.  Returns the (possibly
        new) engine tracer and the access tracer.
        """
        if tracer is None:
            tracer = QueryTracer(None)
            tracer.begin(node, text)
            self.evaluator.set_tracer(tracer)
        atracer = AccessTracer(spans=tracer)
        self.evaluator.backend.access = atracer
        return tracer, atracer

    def _finish_access(self, atracer) -> None:
        """Detach the access tracer and freeze its profile."""
        self.evaluator.backend.access = None
        self.last_access_records = atracer.records()
        self.last_access = atracer.profile(self.access_page_size)

    def accesses(self, text: str) -> dict:
        """Drive ``text`` access-traced; report where its reads went.

        The REPL ``accesses`` command and the ``accesses`` wire op:
        the query runs through the full recovering :meth:`ievents`
        drive (governor, rollback, qlog — everything applies), output
        lines are swallowed, and the result describes the target
        traffic instead: the access profile (stride histogram,
        classification, page locality) plus the prefetch advisor's
        projected hit rates for the recorded trace.
        """
        outcome, info = "error", {}
        for kind, payload in self.ievents(text, access=True):
            if kind != "value":
                outcome, info = kind, payload
        result: dict = {"outcome": outcome,
                        "values": info.get("values", 0)}
        for key in ("diagnostic", "error", "error_type",
                    "access", "advisor"):
            if key in info:
                result[key] = info[key]
        if self.last_fingerprint is not None:
            result["fingerprint"] = self.last_fingerprint.hash
        return result

    def _stats_baseline(self) -> tuple:
        """Cumulative counters sampled at query start (deltas later)."""
        backend = self.evaluator.backend
        evaluator = self.evaluator
        self._format_ns = 0
        return (backend.reads, backend.writes, backend.calls,
                backend.allocs, evaluator.scope.lookup_count,
                evaluator.string_cache_hits, evaluator.string_cache_misses)

    def _finish_query(self, tracer: Optional[QueryTracer], baseline: tuple,
                      parse_ns: int, drive_ns: int) -> None:
        """Freeze the clock, detach tracing, record per-query stats.

        Fills :attr:`last_query_stats` with the governor counters plus
        the query's target-traffic and lookup deltas, and folds the
        query into the metrics registry — so identical back-to-back
        queries report identical per-query stats (wall time aside).
        """
        self.governor.end_query()
        if tracer is not None:
            tracer.finish()
            self.evaluator.set_tracer(None)
            self.last_trace = tracer
        backend = self.evaluator.backend
        evaluator = self.evaluator
        reads0, writes0, calls0, allocs0, lookups0, hits0, misses0 = baseline
        traffic = {
            "reads": backend.reads - reads0,
            "writes": backend.writes - writes0,
            "calls": backend.calls - calls0,
            "allocs": backend.allocs - allocs0,
        }
        stats = self.governor.stats()
        stats.update(traffic)
        stats["lookups"] = evaluator.scope.lookup_count - lookups0
        self.last_query_stats = stats
        format_ns = self._format_ns
        self.last_query_phases = {
            "parse": parse_ns / 1e6,
            "eval": max(drive_ns - format_ns, 0) / 1e6,
            "format": format_ns / 1e6}
        if self.metrics is not None:
            self.metrics.record_query(self.governor.stats(), traffic,
                                      phases=self.last_query_phases)
            self.metrics.counter("string_cache_hits").inc(
                evaluator.string_cache_hits - hits0)
            self.metrics.counter("string_cache_misses").inc(
                evaluator.string_cache_misses - misses0)

    def _observe_query(self, qid: Optional[int], text: str, failure,
                       tracer: Optional[QueryTracer]) -> None:
        """Feed one finished query to the query log and flight recorder.

        Runs in the drive's ``finally`` (after :meth:`_finish_query`
        froze the stats), so every query — drained, truncated,
        cancelled or faulted — leaves exactly one terminal log record,
        and the recorder window always reflects what actually ran.
        """
        outcome, kind = classify(failure)
        stats = self.last_query_stats
        # The governor's lines counter includes the charge that tripped
        # the quota; the truncation knows how many values actually made
        # it out, and that is what the record should say.
        produced = getattr(failure, "produced", None)
        values = produced if produced is not None \
            else stats.get("lines", 0)
        fp = self.last_fingerprint
        access = self.last_access
        if qid is not None:
            self.qlog.end(qid, outcome, values=values, kind=kind,
                          error=failure if outcome == "faulted" else None,
                          stats=stats, phases=self.last_query_phases,
                          fingerprint=fp.hash if fp is not None else None,
                          trace_id=self.current_trace_id,
                          access=compact_profile(access)
                          if access is not None else None)
        statements = self.statements
        if statements is not None and fp is not None:
            statements.record(fp.hash, fp.text, outcome=outcome,
                              values=values, stats=stats,
                              phases=self.last_query_phases)
            if access is not None:
                statements.record_access(fp.hash, access)
        accesslog = self.accesslog
        if accesslog is not None and access is not None:
            record = {"ev": "access", "text": text, "outcome": outcome,
                      "values": values, "profile": access}
            if fp is not None:
                record["fingerprint"] = fp.hash
            if self.current_trace_id is not None:
                record["trace_id"] = self.current_trace_id
            accesslog.export(record)
        recorder = self.recorder
        if recorder is None:
            return
        entry = {"qid": qid, "text": text, "outcome": outcome,
                 "values": values, "stats": dict(stats),
                 "phases": dict(self.last_query_phases)}
        if kind is not None:
            entry["kind"] = kind
        if failure is not None and outcome == "faulted":
            entry["error"] = str(failure)
            entry["error_type"] = type(failure).__name__
        if tracer is not None:
            entry["explain"] = [span.as_dict() for span in tracer.spans]
            events = tracer.events()
            if events:
                entry["events"] = [list(event) for event in events]
        recorder.record(entry)
        if recorder.dump_dir is not None and should_dump(outcome, failure):
            reason = f"{outcome}: query {qid} {text!r}"
            if failure is not None:
                reason += f" ({failure})"
            try:
                recorder.dump(reason, metrics=self.metrics,
                              governor=self.governor)
            except OSError:
                pass        # a failing dump must never break the session

    # -- failed-query rollback ----------------------------------------------
    def _checkpoint_for(self, node: N.Node):
        """Snapshot the target before a query that could mutate it.

        Only possible when the backend exposes its program (the
        simulator and the fault-injecting wrapper do); other backends
        simply skip rollback.
        """
        if not _has_side_effects(node):
            return None
        program = getattr(self.backend, "program", None)
        if program is None:
            return None
        from repro.target import snapshot
        return (program, snapshot.take(program))

    def _restore(self, checkpoint) -> None:
        if checkpoint is None:
            return
        program, snap = checkpoint
        from repro.target import snapshot
        snapshot.restore(program, snap)
        self.evaluator.invalidate_target_caches()

    def values_line(self, text: str) -> str:
        """Space-joined value texts, the paper's constants-only display.

        The paper's opening examples show ``duel (1..3)+(5,9)`` printing
        ``6 10 7 11 8 12`` ("the examples ... omitted the symbolic
        output"); this helper reproduces that presentation.
        """
        return " ".join(self.formatter.format(v) for v in self.ieval(text))

    # -- saved queries (paper Discussion: editable query history) -----------
    def save_query(self, name: str, text: str) -> None:
        """Name a query for later re-issue (validated eagerly)."""
        self.compile(text)
        self.saved[name] = text

    def run_saved(self, name: str) -> list[str]:
        """Re-issue a saved query by name; returns its output lines.

        Routed through the recovering :meth:`duel` drive — exactly like
        the REPL's ``!name`` path — so a saved query that faults or
        truncates mid-drive still returns the lines it produced (plus
        the error or truncation diagnostic) instead of raising away
        the partial results.
        """
        if name not in self.saved:
            raise KeyError(f"no saved query named {name!r}")
        import io
        buffer = io.StringIO()
        self.duel(self.saved[name], out=buffer)
        return buffer.getvalue().splitlines()

    # -- alias management ------------------------------------------------------
    def clear_aliases(self) -> None:
        """Drop all debugger aliases (x := ... definitions)."""
        self.evaluator.scope.clear_aliases()

    def aliases(self) -> dict[str, DuelValue]:
        return self.evaluator.scope.aliases()

    @property
    def lookup_count(self) -> int:
        """Total symbol lookups performed (benchmark P2)."""
        return self.evaluator.scope.lookup_count


def _has_side_effects(node: N.Node) -> bool:
    """True when evaluating the AST can mutate the target.

    Assignments and increments write memory; calls run target code;
    declarations allocate target scratch space.
    """
    for n in N.walk(node):
        if isinstance(n, (N.Assign, N.IncDec, N.Call, N.Declaration)):
            return True
    return False


def _mentions_state(node: N.Node) -> bool:
    """True when the AST refers to any name/alias/declaration.

    Pure constant expressions are displayed without symbolics, matching
    every constants-only session in the paper.
    """
    for n in N.walk(node):
        if isinstance(n, (N.Name, N.Underscore, N.Declaration, N.Define,
                          N.IndexAlias, N.StringLiteral, N.FrameExpr)):
            return True
    return False
