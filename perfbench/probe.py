"""A fixed calibration probe for the host's current speed.

The 2-vCPU host this benchmark was built on switches, every few seconds
to minutes, between a fast state and one where the same pure-Python work
takes up to 1.8x as long (other tenants share its cores).  Raw wall
times of one program therefore disagree between runs by 20-45%.  So the
caller runs :func:`probe` -- fixed pure-Python work of the kind DUEL
does (generators, small objects, ``struct`` decoding, formatting), using
nothing from ``src/`` so that no program change can move it -- before
every query, and each pass's times are scaled by :func:`factor` of that
pass's probes: ``(REFERENCE_NS / median) ** ELASTICITY[workload]``.

``ELASTICITY`` is the measured slope of log(pass time) against
log(probe time) across the passes of several runs on that host (215,
87 and 121 passes; correlation 0.90, 0.93 and 0.63): DUEL slows less
than the probe when the host slows, and the server, which also waits on
sockets, locks and memory copies, least.  Raw times are printed beside
scaled ones.
"""

from __future__ import annotations

import struct
from time import perf_counter_ns

#: Probe time the reported timings are scaled to (about its median in
#: the host's slow state, CPython 3.11).
REFERENCE_NS = 1_000_000
#: How strongly each workload's times follow the probe's (module doc).
ELASTICITY = {"scan": 0.62, "chase": 0.67, "serve": 0.43}

_DATA = bytes(range(256)) * 32
_INT = struct.Struct("<i").unpack_from


class _Item:
    __slots__ = ("value", "index")

    def __init__(self, value: int, index: int):
        self.value = value
        self.index = index


def _items(n: int):
    for i in range(n):
        yield _Item(_INT(_DATA, (i * 4) % 8000)[0], i)


def probe() -> int:
    """Run the fixed work once; returns its wall time in nanoseconds."""
    t0 = perf_counter_ns()
    lines = []
    for item in _items(770):
        value = item.value
        if isinstance(value, int) and value % 3:
            lines.append(f"x[{item.index}] = {value}")
    return perf_counter_ns() - t0


def factor(workload: str, probes) -> float:
    """The factor that turns ``workload``'s raw times, measured beside
    ``probes``, into reference times."""
    ordered = sorted(probes)
    return (REFERENCE_NS / ordered[len(ordered) // 2]) \
        ** ELASTICITY[workload]
