"""The repository benchmark: DUEL end to end, and layer by layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  Workloads:

* ``scan``  -- one in-process ``DuelSession`` scanning typed arrays;
* ``chase`` -- the same set-up walking lists, a BST and hash chains;
* ``serve`` -- the ``duel-serve`` entry point in its own process, driven
  by two ``DuelClient`` connections in a closed loop.

Every query's output is checked against a reference computed in plain
Python from the seeded data (``workloads.py``).  With ``--trace 0`` the
run prints the end-to-end metrics; with ``--trace 1`` it installs the
layer wrappers of ``tracing.py`` and prints per-layer counts and self
times instead.  Human-readable lines come first; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, perf_counter_ns

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7
SERVE_SETUPS = 5
#: Tail latency: the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: Bound on any one wait for a child process (seconds).
CHILD_TIMEOUT = 60

END_TO_END_UNITS = {
    "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "first_value_p50_ms": "ms", "values_per_s": "1/s",
    "queries_per_s": "1/s", "write_p50_ms": "ms", "ok_ratio": "ratio",
    "peak_rss_mb": "MB", "setup_s": "s",
}


# -- estimators -------------------------------------------------------------------
def tail(values) -> tuple:
    """(value, percentile): the highest percentile of ``values`` that has
    at least :data:`TAIL_BEYOND` samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    return env


class Child:
    """A child process whose stdout lines are drained by a thread."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for text in self.proc.stdout:
            self.lines.put(text.rstrip("\n"))
        self.lines.put(None)

    def wait_line(self, test, timeout: float = CHILD_TIMEOUT) -> str:
        """The first stdout line satisfying ``test``."""
        while True:
            text = self.lines.get(timeout=timeout)
            if text is None:
                raise RuntimeError(
                    f"child exited with {self.proc.wait()} before ready")
            if test(text):
                return text

    def finish(self, stop_signal=None) -> list:
        """Stop (optionally signalling first) and return remaining lines."""
        try:
            if stop_signal is not None and self.proc.poll() is None:
                self.proc.send_signal(stop_signal)
            self.proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._reader.join(timeout=CHILD_TIMEOUT)
        rest = []
        while not self.lines.empty():
            text = self.lines.get()
            if text is not None:
                rest.append(text)
        return rest

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# -- in-process workloads ----------------------------------------------------------
def run_inproc(args) -> dict:
    script = str(HERE / "inproc.py")
    base = [script, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        base += ["--spans", str(OUT / f"spans-{args.workload}-{args.seed}"
                                            f".jsonl")]
    setups = []
    for i in range(1 if args.trace else SETUPS):
        last = i == (0 if args.trace else SETUPS - 1)
        t0 = perf_counter()
        child = Child(base + ([] if last else ["--setup-only"]))
        try:
            child.wait_line(lambda text: text == "READY")
            setups.append(perf_counter() - t0)
            if not last:
                child.finish()
                continue
            rest = child.finish()
        except BaseException:
            child.kill()
            raise
        if child.proc.returncode != 0 or not rest:
            raise RuntimeError(f"inproc.py failed ({child.proc.returncode})")
        result = json.loads(rest[-1])
    result["setups"] = setups
    result["workload"] = args.workload
    return result


def pass_factors(workload: str, probes, per_pass: int) -> list:
    """One :func:`probe.factor` per pass, from the probes run before the
    pass's queries (the last group may be a partial pass)."""
    return [probe.factor(workload, probes[i:i + per_pass])
            for i in range(0, len(probes), per_pass)]


def timing_metrics(samples, passes, per_pass_queries: int,
                   per_pass_values: int) -> tuple:
    """(metrics, tail percentile, raw p50 ns, raw pass ns) of one run.

    ``samples`` are (latency_ns, first_value_ns, writes, pass_factor,
    own_factor) and ``passes`` (pass_ns, factor).  Times are scaled by
    their pass's factor, except the first-value time: it is a short
    interval that starts right after the query's own probe, so that
    probe's factor describes it better.
    """
    lat = [s[0] * s[3] for s in samples]
    pass_s = statistics.median(ns * f for ns, f in passes) / 1e9
    tail_ns, pct = tail(lat)
    return {
        "latency_p50_ms": statistics.median(lat) / 1e6,
        "latency_tail_ms": tail_ns / 1e6,
        "first_value_p50_ms":
            statistics.median(s[1] * s[4] for s in samples) / 1e6,
        "values_per_s": per_pass_values / pass_s,
        "queries_per_s": per_pass_queries / pass_s,
        "write_p50_ms":
            statistics.median(s[0] * s[3] for s in samples if s[2]) / 1e6,
    }, pct, statistics.median(s[0] for s in samples), \
        statistics.median(ns for ns, _ in passes)


def common_notes(pct: float, samples: int, factors: list, raw_p50: float,
                 raw_pass: float, per_pass_values: int) -> list:
    return [f"latency_tail_ms is p{pct:.2f} of {samples} samples",
            f"host scale factors: median {statistics.median(factors):.3f}"
            f", {min(factors):.3f}..{max(factors):.3f}; raw latency_p50 "
            f"{raw_p50 / 1e6:.3f} ms, raw values_per_s "
            f"{per_pass_values / (raw_pass / 1e9):.1f}"]


def inproc_metrics(result: dict) -> tuple:
    mix_writes = result["writes"]
    samples = result["samples"]
    nq = len(mix_writes)
    ok = sum(1 for s in samples if s[4])
    per_pass_values = sum(s[3] for s in samples[:nq])
    workload = result["workload"]
    factors = pass_factors(workload, result["probes"], nq)
    metrics, pct, raw_p50, raw_pass = timing_metrics(
        [(s[1], s[2], mix_writes[s[0]], factors[j // nq],
          probe.factor(workload, [result["probes"][j]]))
         for j, s in enumerate(samples)],
        list(zip(result["passes"], factors)), nq, per_pass_values)
    metrics.update({
        "ok_ratio": ok / len(samples),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "setup_s": statistics.median(result["setups"]),
    })
    notes = common_notes(pct, len(samples), factors, raw_p50, raw_pass,
                         per_pass_values) + [
        f"passes: {len(result['passes'])}, "
        f"{nq} queries and {per_pass_values} values each"]
    failed = len(samples) - ok + result["warmup_failed"]
    return metrics, len(samples), failed, notes


# -- serve ---------------------------------------------------------------------------
class ClientLoop(threading.Thread):
    """One closed-loop client running its fixed sequence in passes."""

    def __init__(self, client, sequence, deadline_ns=None, passes=None,
                 tracer=None):
        super().__init__(daemon=True)
        self.client = client
        self.sequence = sequence
        self.deadline_ns = deadline_ns
        self.max_passes = passes
        self.tracer = tracer
        self.samples: list = []
        self.passes: list = []
        self.probes: list = []
        self.errors: list = []

    def _expired(self) -> bool:
        return self.deadline_ns is not None \
            and perf_counter_ns() >= self.deadline_ns

    def run(self) -> None:
        try:
            while not self._expired() and (self.max_passes is None or
                                           len(self.passes) <
                                           self.max_passes):
                start = perf_counter_ns()
                probed = 0
                for index, query in enumerate(self.sequence):
                    if self._expired():
                        return
                    self.probes.append(probe.probe())
                    probed += self.probes[-1]
                    if self.tracer is not None:
                        self.tracer.set_query(len(self.samples))
                    self.samples.append((index, *self._one(query)))
                self.passes.append(perf_counter_ns() - start - probed)
        except Exception as error:          # a broken conversation
            self.errors.append(f"{type(error).__name__}: {error}")

    def _one(self, query) -> tuple:
        first = []

        def on_line(_line):
            if not first:
                first.append(perf_counter_ns())
        t0 = perf_counter_ns()
        result = self.client.duel(query.text, on_line=on_line)
        end = perf_counter_ns()
        ok = result.outcome == "done" \
            and tuple(result.lines) == query.expected
        return (end - t0, (first[0] if first else end) - t0,
                len(result.lines), ok, query.writes,
                result.outcome == "rejected")


class Server:
    """A ``serve_host.py`` process plus the benchmark's two clients."""

    def __init__(self, source: Path, trace: bool = False, spans=None):
        from repro.serve.client import DuelClient

        argv = [str(HERE / "serve_host.py"), "--trace", str(int(trace))]
        if spans is not None:
            argv += ["--spans", str(spans)]
        self.child = Child(argv + ["--", str(source), "--port", "0"])
        self.clients = []
        try:
            ready = self.child.wait_line(
                lambda text: text.startswith("serving on "))
            port = int(ready.rsplit(":", 1)[1])
            for i in range(2):
                self.clients.append(DuelClient(port=port,
                                               client=f"bench{i}"))
        except BaseException:
            self.close()
            raise

    def run(self, sequences, seconds=None, passes=None, tracer=None):
        deadline = None if seconds is None \
            else perf_counter_ns() + int(seconds * 1e9)
        loops = [ClientLoop(client, sequence, deadline, passes, tracer)
                 for client, sequence in zip(self.clients, sequences)]
        for loop in loops:
            loop.start()
        for loop in loops:
            loop.join(timeout=(seconds or 0) + CHILD_TIMEOUT)
            if loop.is_alive():
                raise RuntimeError("a client loop did not finish")
        return loops

    def signal(self, signum) -> None:
        self.child.proc.send_signal(signum)

    def close(self) -> dict:
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass
        rest = self.child.finish(signal.SIGINT)
        for text in reversed(rest):
            if text.startswith("PERFBENCH_HOST "):
                return json.loads(text.split(" ", 1)[1])
        return {}


def run_serve(args) -> dict:
    import workloads

    workload = workloads.make("serve", args.seed)
    OUT.mkdir(exist_ok=True)
    source = OUT / f"serve-{args.seed}-{os.getpid()}.c"
    source.write_text(workload.source)
    sequences = workload.clients
    try:
        if args.trace:
            return _serve_traced(args, source, sequences)
        setups = []
        server = None
        for i in range(SERVE_SETUPS):
            t0 = perf_counter()
            server = Server(source)
            setups.append(perf_counter() - t0)
            if i < SERVE_SETUPS - 1:
                server.close()
        try:
            warm = server.run(sequences, passes=1)
            loops = server.run(sequences, seconds=args.seconds)
        finally:
            host = server.close()
        return {"setups": setups, "loops": loops, "warm": warm,
                "maxrss_kb": host.get("maxrss_kb", 0)}
    finally:
        source.unlink()


def _serve_traced(args, source, sequences) -> dict:
    import tracing

    half = args.seconds / 2
    server = Server(source)
    try:
        warm = server.run(sequences, passes=1)
        untraced = server.run(sequences, seconds=half)
    finally:
        server.close()
    tracer = tracing.LayerTracer()
    tracing.install(tracer)
    server = Server(source, trace=True,
                    spans=OUT / f"spans-serve-{args.seed}-server.jsonl")
    try:
        warm += server.run(sequences, passes=1)
        server.signal(signal.SIGUSR1)
        tracer.reset()
        loops = server.run(sequences, seconds=half, tracer=tracer)
    finally:
        host = server.close()
    tracer.write_spans(OUT / f"spans-serve-{args.seed}-client.jsonl")
    return {"loops": loops, "warm": warm, "untraced": untraced,
            "host": host, "client_layers": tracer.aggregates(),
            "layer_of": {**tracer.layer_of, **host.get("layer_of", {})}}


def _scaled_loops(loops) -> tuple:
    """Every client's (sample, pass factor, own factor) triples, their
    (pass_ns, factor) pairs, and all pass factors."""
    scaled, passes, factors = [], [], []
    for loop in loops:
        per_pass = len(loop.sequence)
        f = pass_factors("serve", loop.probes, per_pass)
        scaled += [(s, f[j // per_pass],
                    probe.factor("serve", [loop.probes[j]]))
                   for j, s in enumerate(loop.samples)]
        passes += list(zip(loop.passes, f))
        factors += f
    return scaled, passes, factors


def serve_metrics(result: dict) -> tuple:
    loops = result["loops"]
    samples = [s for loop in loops for s in loop.samples]
    lat = [s[1] for s in samples]
    ok = sum(1 for s in samples if s[4])
    per_pass_values = sum(len(q.expected) for loop in loops
                          for q in loop.sequence)
    per_pass_queries = sum(len(loop.sequence) for loop in loops)
    scaled, passes, factors = _scaled_loops(loops)
    metrics, pct, raw_p50, raw_pass = timing_metrics(
        [(s[1], s[2], s[5], f, own) for s, f, own in scaled], passes,
        per_pass_queries, per_pass_values)
    # The clients run different sequences, so their pass times form two
    # clusters: the round's rate is the sum of each client's rate, each
    # from that client's median pass.
    queries_per_s = values_per_s = 0.0
    for loop in loops:
        f = pass_factors("serve", loop.probes, len(loop.sequence))
        pass_s = statistics.median(
            ns * g for ns, g in zip(loop.passes, f)) / 1e9
        queries_per_s += len(loop.sequence) / pass_s
        values_per_s += sum(len(q.expected) for q in loop.sequence) / pass_s
    metrics.update({
        "values_per_s": values_per_s,
        "queries_per_s": queries_per_s,
        "ok_ratio": ok / len(samples),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "setup_s": statistics.median(result["setups"]),
    })
    p50 = statistics.median(lat)
    slow = sum(1 for v in lat if v > 4 * p50)
    notes = common_notes(pct, len(samples), factors, raw_p50, raw_pass,
                         per_pass_values) + [
             f"passes: {len(passes)} over {len(loops)} clients, "
             f"{per_pass_queries} queries and {per_pass_values} values "
             "per round",
             f"slow mode (> 4x p50): {slow} samples "
             f"({100.0 * slow / len(lat):.1f}%); the tail rank has "
             f"{slow - TAIL_BEYOND - 1} slow samples below it"]
    errors = [e for loop in loops + result["warm"] for e in loop.errors]
    notes += [f"client error: {e}" for e in errors]
    warm_failed = sum(1 for loop in result["warm"] for s in loop.samples
                      if not s[4])
    failed = len(samples) - ok + warm_failed + len(errors)
    return metrics, len(samples), failed, notes


# -- per-layer metrics --------------------------------------------------------------
LAYERS = ("core.parser", "core.session", "obs", "core.eval", "core.ops",
          "ctype", "core.format", "target.interface", "target.memory",
          "target.snapshot", "serve.sessions", "serve.protocol")
LOOKUPS = ("get_target_variable", "get_target_typedef", "get_target_struct",
           "get_target_union", "get_target_enum", "enum_constant",
           "get_frame_variable")


def _merge(tables, factor: float) -> dict:
    """Sum per-function aggregates, scaling their two time fields."""
    merged: dict = {}
    for table in tables:
        for name, entry in table.items():
            into = merged.setdefault(name, [0, 0, 0, 0, 0])
            for i, value in enumerate(entry):
                into[i] += value * factor if i in (1, 2) else value
    return merged


def layer_metrics(aggs: dict, layer_of: dict, samples: list,
                  untraced_lat: list, serve: bool, rejected: int) -> dict:
    """Per-layer metrics from merged per-function aggregates.

    ``samples`` are the traced queries as (latency_ns, values) pairs;
    every time is already scaled by its phase's probe factor.
    """
    queries = max(len(samples), 1)
    values = max(sum(v for _, v in samples), 1)
    latency_total = sum(lat for lat, _ in samples)

    def fn(name, i=0):
        return aggs.get(name, [0, 0, 0, 0, 0])[i]

    def layer(name, i):
        return sum(entry[i] for fname, entry in aggs.items()
                   if layer_of.get(fname) == name)

    self_ns = {name: layer(name, 2) for name in LAYERS}
    calls = {name: layer(name, 0) for name in LAYERS}
    reads = fn("SimulatorBackend.get_target_bytes")
    mem_reads = fn("Memory.read")
    takes = fn("snapshot.take")
    restores = fn("snapshot.restore")
    written = fn("Memory.write", 3)
    protocol_total = fn("protocol.encode", 1) + fn("protocol.decode", 1)
    attributed = sum(self_ns.values())
    metrics = {
        "core.parser.calls_per_query": calls["core.parser"] / queries,
        "core.parser.us_per_query": self_ns["core.parser"] / queries / 1e3,
        "core.session.self_us_per_query":
            self_ns["core.session"] / queries / 1e3,
        "obs.us_per_query": self_ns["obs"] / queries / 1e3,
        "core.eval.self_ns_per_value": self_ns["core.eval"] / values,
        "core.eval.steps_per_value": fn("Evaluator.eval", 4) / values,
        "core.ops.calls_per_value": calls["core.ops"] / values,
        "core.ops.self_ns_per_value": self_ns["core.ops"] / values,
        "ctype.calls_per_value": calls["ctype"] / values,
        "ctype.self_ns_per_value": self_ns["ctype"] / values,
        "core.format.self_ns_per_value": self_ns["core.format"] / values,
        "target.interface.reads_per_value": reads / values,
        "target.interface.bytes_per_read":
            fn("SimulatorBackend.get_target_bytes", 3) / max(reads, 1),
        "target.interface.lookups_per_query":
            sum(fn(f"SimulatorBackend.{name}") for name in LOOKUPS)
            / queries,
        "target.interface.self_ns_per_value":
            self_ns["target.interface"] / values,
        "target.memory.self_ns_per_read":
            fn("Memory.read", 2) / max(mem_reads, 1),
        "target.snapshot.take_ms":
            fn("snapshot.take", 1) / max(takes, 1) / 1e6,
        "target.snapshot.restore_ms":
            fn("snapshot.restore", 1) / max(restores, 1) / 1e6,
        "target.snapshot.bytes_per_take":
            fn("snapshot.take", 3) / max(takes, 1),
        "target.snapshot.copied_bytes_per_written_byte":
            (fn("snapshot.take", 3) + fn("snapshot.restore", 3))
            / max(written, 1),
        "serve.sessions.read_wait_ms":
            fn("ReadWriteLock.acquire_read", 1)
            / max(fn("ReadWriteLock.acquire_read"), 1) / 1e6,
        "serve.sessions.write_wait_ms":
            fn("ReadWriteLock.acquire_write", 1)
            / max(fn("ReadWriteLock.acquire_write"), 1) / 1e6,
        "serve.sessions.run_ms": fn("SessionManager.run", 1) / queries / 1e6,
        "serve.protocol.frames_per_query":
            fn("protocol.encode") / queries,
        "serve.protocol.us_per_query": protocol_total / queries / 1e3,
        "serve.server.self_us_per_query":
            (latency_total - fn("SessionManager.run", 1) - protocol_total)
            / queries / 1e3 if serve else 0.0,
        "serve.server.rejected_per_query": rejected / queries,
    }
    for name in LAYERS:
        metrics[f"{name}.share"] = self_ns[name] / max(latency_total, 1)
    metrics["other.share"] = 1.0 - attributed / max(latency_total, 1)
    traced_p50 = statistics.median(lat for lat, _ in samples) / 1e6
    untraced_p50 = statistics.median(untraced_lat) / 1e6
    metrics.update({
        "trace.coverage": attributed / max(latency_total, 1),
        "trace.latency_p50_ms": traced_p50,
        "trace.untraced_latency_p50_ms": untraced_p50,
        "trace.overhead_ratio": traced_p50 / untraced_p50,
        "trace.queries": float(len(samples)),
        "trace.values": float(sum(v for _, v in samples)),
    })
    return metrics


PREDICTIONS = {
    1: ("serve", "each query is parsed three times (client classify, "
                 "server classify, ievents)"),
    2: ("serve", "every write copies the whole ~38 MiB region map twice "
                 "(take ~25 ms, restore ~53 ms; write p50 ~120 ms; "
                 "reads p50 ~4 ms, p90 ~110 ms)"),
    3: ("scan", "C typing (core.ops + ctype) takes about half the time"),
    4: ("chase", "target and core.eval dominate; ctype conversions "
                 "take under 3%"),
}


def predictions(workload: str, m: dict, read_lat=None) -> list:
    """One line per prediction: held, refuted, or not tested here."""
    lines = []
    for number, (where, claim) in PREDICTIONS.items():
        if where != workload:
            lines.append(f"prediction {number} ({where}): not tested on "
                         f"{workload}")
            continue
        if number == 1:
            parses = m["core.parser.calls_per_query"]
            held = abs(parses - 3.0) < 0.05
            detail = f"{parses:.3f} parses per query"
        elif number == 2:
            mib = m["target.snapshot.bytes_per_take"] / 2 ** 20
            held = 36 <= mib <= 40 and m["target.snapshot.restore_ms"] > 0
            detail = (f"{mib:.2f} MiB per take, take "
                      f"{m['target.snapshot.take_ms']:.1f} ms, restore "
                      f"{m['target.snapshot.restore_ms']:.1f} ms (traced)")
            if read_lat:
                reads = sorted(read_lat)
                detail += (f"; untraced reads p50 "
                           f"{statistics.median(reads) / 1e6:.1f} ms, p90 "
                           f"{reads[int(0.9 * (len(reads) - 1))] / 1e6:.1f}"
                           " ms")
        elif number == 3:
            share = m["core.ops.share"] + m["ctype.share"]
            held = 0.35 <= share <= 0.65
            detail = f"core.ops + ctype = {100 * share:.1f}% of latency"
        else:
            ranked = sorted(LAYERS, key=lambda name: -m[f"{name}.share"])
            top = set(ranked[:4])
            held = m["ctype.share"] < 0.03 and \
                {"target.memory", "core.eval"} <= top
            detail = (f"ctype {100 * m['ctype.share']:.1f}%, top layers "
                      + ", ".join(f"{name} {100 * m[name + '.share']:.1f}%"
                                  for name in ranked[:4]))
        verdict = "held" if held else "refuted"
        lines.append(f"prediction {number} ({where}: {claim}): {verdict} "
                     f"-- {detail}")
    return lines


def traced_inproc(result: dict) -> tuple:
    samples = result["samples"]
    nq = len(result["writes"])
    factors = pass_factors(result["workload"], result["probes"], nq)
    untraced = pass_factors(result["workload"],
                            result["untraced"]["probes"], nq)
    m = layer_metrics(_merge([result["layers"]],
                             statistics.median(factors)),
                      result["layer_of"],
                      [(s[1] * factors[j // nq], s[3])
                       for j, s in enumerate(samples)],
                      [s[1] * untraced[j // nq]
                       for j, s in enumerate(result["untraced"]["samples"])],
                      serve=False, rejected=0)
    failed = sum(1 for s in samples if not s[4]) + result["warmup_failed"] \
        + sum(1 for s in result["untraced"]["samples"] if not s[4])
    notes = [f"spans written: {result.get('spans_written', 0)}"]
    return m, len(samples), failed, notes


def traced_serve(result: dict) -> tuple:
    loops = result["loops"]
    samples = [s for loop in loops for s in loop.samples]
    untraced = [s for loop in result["untraced"] for s in loop.samples]
    host = result["host"]
    scaled, _, factors = _scaled_loops(loops)
    untraced_scaled, _, _ = _scaled_loops(result["untraced"])
    aggs = _merge([result["client_layers"], host.get("layers", {})],
                  statistics.median(factors))
    m = layer_metrics(aggs, result["layer_of"],
                      [(s[1] * f, s[3]) for s, f, _ in scaled],
                      [s[1] * f for s, f, _ in untraced_scaled], serve=True,
                      rejected=sum(1 for s in samples if s[6]))
    errors = [e for loop in loops + result["warm"] + result["untraced"]
              for e in loop.errors]
    failed = sum(1 for s in samples + untraced if not s[4]) + len(errors) \
        + sum(1 for loop in result["warm"] for s in loop.samples if not s[4])
    notes = [f"server spans written: {host.get('spans_written', 0)}"]
    notes += [f"client error: {e}" for e in errors]
    return m, len(samples), failed, notes, \
        [s[1] * f for s, f, _ in untraced_scaled if not s[5]]


# -- entry point -------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("scan", "chase", "serve"),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no DUEL sources under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)

    read_lat = None
    if args.workload == "serve":
        result = run_serve(args)
        if args.trace:
            metrics, attempted, failed, notes, read_lat = \
                traced_serve(result)
        else:
            metrics, attempted, failed, notes = serve_metrics(result)
    else:
        result = run_inproc(args)
        if args.trace:
            metrics, attempted, failed, notes = traced_inproc(result)
        else:
            metrics, attempted, failed, notes = inproc_metrics(result)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    if args.trace:
        for text in predictions(args.workload, metrics, read_lat):
            print(f"  {text}")
    units = END_TO_END_UNITS if not args.trace else PER_LAYER_UNITS
    report = {name: {"value": value, "unit": units[name]}
              for name, value in metrics.items()}
    for name, entry in report.items():
        print(f"  {name:48s} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


def _per_layer_units() -> dict:
    units = {}
    for name in ("core.parser.calls_per_query", "core.ops.calls_per_value",
                 "ctype.calls_per_value", "core.eval.steps_per_value",
                 "target.interface.reads_per_value",
                 "target.interface.lookups_per_query",
                 "serve.protocol.frames_per_query",
                 "serve.server.rejected_per_query", "trace.queries",
                 "trace.values"):
        units[name] = "count"
    for name in ("core.parser.us_per_query",
                 "core.session.self_us_per_query", "obs.us_per_query",
                 "serve.protocol.us_per_query",
                 "serve.server.self_us_per_query"):
        units[name] = "us"
    for name in ("core.eval.self_ns_per_value", "core.ops.self_ns_per_value",
                 "ctype.self_ns_per_value", "core.format.self_ns_per_value",
                 "target.interface.self_ns_per_value",
                 "target.memory.self_ns_per_read"):
        units[name] = "ns"
    for name in ("target.snapshot.take_ms", "target.snapshot.restore_ms",
                 "serve.sessions.read_wait_ms",
                 "serve.sessions.write_wait_ms", "serve.sessions.run_ms",
                 "trace.latency_p50_ms", "trace.untraced_latency_p50_ms"):
        units[name] = "ms"
    units["target.interface.bytes_per_read"] = "B"
    units["target.snapshot.bytes_per_take"] = "B"
    for name in ("target.snapshot.copied_bytes_per_written_byte",
                 "trace.coverage", "trace.overhead_ratio", "other.share",
                 *(f"{layer}.share" for layer in LAYERS)):
        units[name] = "ratio"
    return units


PER_LAYER_UNITS = _per_layer_units()


if __name__ == "__main__":
    raise SystemExit(main())
