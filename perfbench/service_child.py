"""The service process of the ``service_mixed`` workload.

    python3 perfbench/service_child.py STORE SOCKET SEED [TRACE_OUT]

Starts an :class:`~repro.serve.AllocationService` (ε = 0.1, no
boosting, two resident sessions) on the unix socket ``SOCKET`` with its
snapshot store under ``STORE``, prints the service's ready line, and
serves until a ``shutdown`` request.  On ``SIGUSR2`` it times the
host probe of :mod:`hostclock` once and prints the seconds as a JSON
line, so the load generator can probe the host speed in the process
that serves, between requests.  With ``TRACE_OUT`` the layer
spans of :mod:`layers` are installed for the whole life of the process
and written to that file as JSON on exit; ``SIGUSR1`` clears what they
recorded so far.  Running the service in its
own process keeps the load generator off the solver's interpreter lock.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

MAX_SESSIONS = 2


class _TimedJson:
    """Stands in for the ``json`` module inside ``repro.serve.service`` so
    response encoding (``json.dumps`` of a reply) is a span too."""

    def __init__(self, tracer, module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)

    def dumps(self, obj, **kwargs):
        if isinstance(obj, dict) and "report" in obj:
            with self._tracer.span("service.encode"):
                text = self._module.dumps(obj, **kwargs)
            self._tracer.count("service.response_bytes", len(text) + 1)
            self._tracer.count("service.responses")
            return text
        return self._module.dumps(obj, **kwargs)


def main(argv: list[str]) -> int:
    store, socket_path, seed = argv[0], argv[1], int(argv[2])
    trace_out = argv[3] if len(argv) > 3 else None

    from repro.api import Engine, SolverConfig
    from repro.serve import service as service_module
    from repro.serve.service import run_service

    from hostclock import HostClock

    clock = HostClock()
    signal.signal(signal.SIGUSR2,
                  lambda *_: print(json.dumps({"probe": clock.probe()}), flush=True))
    service = Engine(SolverConfig(epsilon=0.1, boost=False)).open_service(
        store, socket_path=socket_path, max_sessions=MAX_SESSIONS, seed=seed
    )
    if trace_out is None:
        run_service(service)
        return 0

    import layers
    import spans

    tracer = spans.Tracer()
    # The load generator signals once the priming solves are done.
    signal.signal(signal.SIGUSR1, lambda *_: tracer.reset())
    service_module.json = _TimedJson(tracer, json)
    try:
        with tracer.installed(layers.SERVICE):
            run_service(service)
    finally:
        service_module.json = json
    tracer.dump(trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
