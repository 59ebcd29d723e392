"""The in-process runner: one ``DuelSession`` and one closed-loop caller.

Started by ``run.py`` as its own process so that set-up time counts
from process start and peak RSS is that of the process running DUEL::

    python3 perfbench/inproc.py --workload scan --seed 1 --seconds 10

It prints ``READY`` once the target is built and the session exists.
With ``--setup-only`` it stops there; otherwise it runs one untimed
warm-up pass, then whole passes of the workload's fixed query mix until
``--seconds`` have passed, and prints one JSON line of raw samples.
With ``--trace 1`` the time is split: an untraced half, then a half
with the layer wrappers installed (on a fresh session over the same
target, so no bound method escapes the wrappers).
"""

from __future__ import annotations

import argparse
import json
import resource
from time import perf_counter_ns

import probe
import workloads


def run_query(session, query) -> tuple:
    """(latency_ns, first_value_ns, values, ok) of one query."""
    lines = []
    terminal = None
    t0 = perf_counter_ns()
    first = None
    for kind, payload in session.ievents(query.text):
        if kind == "value":
            if first is None:
                first = perf_counter_ns()
            lines.append(payload)
        else:
            terminal = kind
    end = perf_counter_ns()
    ok = terminal == "done" and tuple(lines) == query.expected
    return end - t0, (first if first is not None else end) - t0, \
        len(lines), ok


def run_passes(session, mix, seconds: float, tracer=None) -> dict:
    """Whole passes of ``mix`` until ``seconds`` have passed, with the
    calibration probe run before each query."""
    samples = []
    passes = []
    probes = []
    deadline = perf_counter_ns() + int(seconds * 1e9)
    qid = 0
    while True:
        start = perf_counter_ns()
        if start >= deadline and passes:
            break
        probed = 0
        for index, query in enumerate(mix):
            probes.append(probe.probe())
            probed += probes[-1]
            if tracer is not None:
                tracer.set_query(qid)
            qid += 1
            samples.append((index, *run_query(session, query)))
        passes.append(perf_counter_ns() - start - probed)
    return {"samples": samples, "passes": passes, "probes": probes}


def warm_up(session, mix) -> int:
    """One untimed pass; returns how many of its queries went wrong."""
    return sum(1 for query in mix if not run_query(session, query)[3])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("scan", "chase"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.core.session import DuelSession
    from repro.target.interface import SimulatorBackend

    workload = workloads.make(args.workload, args.seed)
    program = workloads.build_target(workload)
    session = DuelSession(SimulatorBackend(program))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    mix = workload.mix
    result = {"warmup_failed": warm_up(session, mix),
              "texts": [query.text for query in mix],
              "writes": [query.writes for query in mix]}
    if not args.trace:
        result.update(run_passes(session, mix, args.seconds))
    else:
        import tracing
        untraced = run_passes(session, mix, args.seconds / 2)
        tracer = tracing.LayerTracer()
        tracing.install(tracer)
        session = DuelSession(SimulatorBackend(program))
        result["warmup_failed"] += warm_up(session, mix)
        tracer.reset()
        result.update(run_passes(session, mix, args.seconds / 2,
                                 tracer=tracer))
        result["untraced"] = untraced
        result["layers"] = tracer.aggregates()
        result["layer_of"] = tracer.layer_of
        if args.spans:
            result["spans_written"] = tracer.write_spans(args.spans)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
