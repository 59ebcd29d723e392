"""Runs the shipping ``duel-serve`` entry point for the benchmark.

    python3 perfbench/serve_host.py [--trace 1 --spans PATH] -- SERVER-ARGS

With ``--trace 1`` it first installs the layer wrappers, and SIGUSR1
clears what they have recorded (the load generator sends it after its
warm-up).  Then it calls ``repro.serve.server.main`` with the server
arguments and the entry point's defaults.  When the server has drained
(SIGINT), it prints one ``PERFBENCH_HOST`` JSON line: peak RSS and, when
tracing, the per-function aggregates.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = args.server_args
    if server_args[:1] == ["--"]:
        server_args = server_args[1:]

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.LayerTracer()
        tracing.install(tracer)
        signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.reset())

    from repro.serve.server import main as serve_main
    code = serve_main(server_args)

    report = {"exit": code,
              "maxrss_kb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        report["layers"] = tracer.aggregates()
        report["layer_of"] = tracer.layer_of
        if args.spans:
            report["spans_written"] = tracer.write_spans(args.spans)
    print("PERFBENCH_HOST " + json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
