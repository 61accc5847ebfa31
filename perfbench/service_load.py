"""The ``service_mixed`` workload: two callers of a socket service.

Why: this is the only workload that crosses JSON framing, report
encoding, queueing behind the service's single solver thread, request
coalescing, and the LRU eviction → snapshot → restore path.

Shape.  Three tenants (the ``cold_solve`` families, ``heavy_tailed`` at
n = 4000, see :func:`tenants`) share an
:class:`~repro.serve.AllocationService` that keeps two sessions
resident, so traffic keeps evicting and restoring them.  Set-up starts
the service process (:mod:`service_child`) on a core of its own and
primes each tenant with one solve.  Then two callers, one connection
each, run a closed loop: each sends its next request as soon as its
previous reply is in, so one request is always queued behind the one
being solved.  Tenants take turns in bursts of :data:`BURST`: seedless
solves (the service's seed cursor picks the seed; some move ε to
0.12) and one ``reroll``.  A tenant's ``open`` goes out right before its
first request, on the same connection.  Failed replies are counted by
error type and never retried.

Why a closed loop.  An open loop at a rate the service can keep up with
leaves its core idle between requests, and on a shared host every
wake-up from idle waits for the host's scheduler: in trials the median
latency of the same open-loop traffic moved by up to a factor of two
from one run to the next while the service's CPU time per request
stayed within 3%.  Two closed-loop callers keep the solver thread busy,
so the figures follow the work the service does.  The generator polls
its sockets without sleeping for the same reason.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hostclock import HostClock

HEAVY_N = 4000
# Once per PAUSE_EVERY seconds the callers hold their next requests, and
# once both replies are in, the service process times the host probe
# (:mod:`hostclock`) PAUSE_PROBES times; the pauses are not counted as
# loop time.
PAUSE_EVERY = 1.0
PAUSE_PROBES = 4
CONNECTIONS = 2                 # closed-loop callers, one connection each
_START_TIMEOUT = 60.0
_DRAIN_TIMEOUT = 60.0

__all__ = ["run_service_mixed", "requests", "tenants"]


@contextlib.contextmanager
def _on_core(core: int):
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {core})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _cores() -> tuple[int, int]:
    """(service core, generator core).  The service process gets a core
    of its own, so the generator never competes with it for a core."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-1], allowed[0]


class _Child:
    """The service process, pinned to ``core``, and its connections."""

    def __init__(self, root: Path, workdir: Path, seed: int, trace_out: Path | None, core: int):
        store = workdir / "store"
        shutil.rmtree(store, ignore_errors=True)
        store.mkdir(parents=True)
        # Relative socket path: unix socket paths are capped near 108
        # bytes and the checkout path can be long.
        sock = os.path.relpath(workdir / "service.sock", root)
        args = [sys.executable, str(root / "perfbench" / "service_child.py"),
                str(store), sock, str(seed)]
        if trace_out is not None:
            args.append(str(trace_out))
        self.proc = subprocess.Popen(args, cwd=root, stdout=subprocess.PIPE, text=True,
                                     preexec_fn=lambda: os.sched_setaffinity(0, {core}))
        started, _, _ = select.select([self.proc.stdout], [], [], _START_TIMEOUT)
        if not started:
            self.proc.kill()
        ready = self.proc.stdout.readline()
        if not ready or not json.loads(ready).get("ready"):
            self.close()
            raise RuntimeError(f"service did not start: {ready!r}")
        self.socks = []
        for _ in range(CONNECTIONS + 1):
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.settimeout(_DRAIN_TIMEOUT)
            s.connect(str(root / sock))
            self.socks.append(s)
        self.control = _LineConn(self.socks[-1])

    def probe(self, clock: HostClock, times: int) -> None:
        """Have the idle service process time the host probe."""
        for _ in range(times):
            self.proc.send_signal(signal.SIGUSR2)
            clock.record(json.loads(self.proc.stdout.readline())["probe"])

    def close(self) -> None:
        for s in getattr(self, "socks", []):
            s.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class _LineConn:
    """Blocking request/response on one connection (set-up and control)."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = b""

    def call(self, payload: bytes) -> dict:
        self.sock.sendall(payload)
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("service closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)


def _line(obj) -> bytes:
    return (json.dumps(obj) + "\n").encode()


def tenants():
    """The three ``cold_solve`` families, ``heavy_tailed`` at n = 4000."""
    from workloads import cold_families

    return cold_families(heavy_n=HEAVY_N)


# Each tenant is served in bursts of this request pattern, tenants in
# turn: with two resident slots for three tenants, the first request
# of every burst evicts one session to a snapshot and restores another.
# The mix is fixed so the seed varies the solver's seeds, not how
# often each path runs.
BURST = (
    {"op": "solve", "epsilon": None},
    {"op": "solve", "epsilon": 0.12},
    {"op": "solve", "epsilon": None},
    {"op": "reroll", "epsilon": None},
    {"op": "solve", "epsilon": 0.12},
    {"op": "solve", "epsilon": 0.12},   # coalesces when the one before is still queued
)


def requests(seed: int, n: int, n_tenants: int) -> list[dict]:
    """The first ``n`` requests of the seeded stream (a pure function of
    its arguments)."""
    rng = np.random.default_rng([seed, 11])
    reroll_seeds = rng.integers(0, 2**31 - 1, size=n)
    return [
        {"tenant": (i // len(BURST)) % n_tenants, **BURST[i % len(BURST)],
         "seed": int(reroll_seeds[i])}
        for i in range(n)
    ]


def _wire(event: dict, hashes: list[str]) -> bytes:
    h = hashes[event["tenant"]]
    if event["op"] == "reroll":
        return _line({"op": "reroll", "instance_hash": h, "seed": event["seed"]})
    request = {} if event["epsilon"] is None else {"epsilon": event["epsilon"]}
    return _line({"op": "solve", "instance_hash": h, "request": request})


def _drive(child: _Child, seconds: float, seed: int, opens: list[bytes], hashes: list[str],
           clock: HostClock):
    """Run the closed loop for ``seconds`` of loop time, pausing to probe
    the host, and collect every reply.

    Returns the loop time and one row per request sent: the times its
    caller was ready, it was sent and it was answered (``perf_counter``
    readings), its event (``None`` for an open) and the decoded reply.
    """
    conns = child.socks[:CONNECTIONS]
    sel = selectors.DefaultSelector()
    for c, conn in enumerate(conns):
        sel.register(conn, selectors.EVENT_READ, c)
    events = iter(requests(seed, 1 << 16, len(hashes)))
    pending: list[list[dict]] = [[] for _ in conns]
    bufs = [b""] * len(conns)
    rows: list[dict] = []
    opened: set[int] = set()
    t0 = time.perf_counter()
    ready = [t0] * len(conns)
    paused = 0.0
    next_pause = PAUSE_EVERY
    deadline = t0 + seconds + _DRAIN_TIMEOUT
    while True:
        now = time.perf_counter()
        holding = now - t0 - paused >= min(seconds, next_pause)
        if holding and not any(pending) and now - t0 - paused < seconds:
            child.probe(clock, PAUSE_PROBES)
            paused += time.perf_counter() - now
            next_pause += PAUSE_EVERY
            now = time.perf_counter()
            ready = [now] * len(conns)
            holding = False
        for c, conn in enumerate(conns):
            if pending[c] or holding:
                continue
            event = next(events)
            batch = []
            if event["tenant"] not in opened:
                opened.add(event["tenant"])
                batch.append(({"due": ready[c], "event": None}, opens[event["tenant"]]))
            batch.append(({"due": ready[c], "event": event}, _wire(event, hashes)))
            for row, payload in batch:
                row["sent"] = time.perf_counter()
                conn.sendall(payload)
                pending[c].append(row)
        if not any(pending) or now > deadline:
            break
        for key, _ in sel.select(timeout=0):  # poll: never sleep
            c = key.data
            chunk = conns[c].recv(1 << 20)
            if not chunk:
                raise ConnectionError("service closed a traffic connection")
            bufs[c] += chunk
            while b"\n" in bufs[c]:
                line, bufs[c] = bufs[c].split(b"\n", 1)
                row = pending[c].pop(0)
                row["done"] = ready[c] = time.perf_counter()
                row["reply"] = json.loads(line)
                rows.append(row)
    sel.close()
    for c in range(len(conns)):
        for row in pending[c]:  # never answered within the drain timeout
            row["done"], row["reply"] = None, {"ok": False, "error": {"type": "timeout"}}
            rows.append(row)
    return time.perf_counter() - t0 - paused, rows


def _eviction_probe(child: _Child, seed: int) -> int:
    """Open three fresh tenants before solving any, then solve the first.

    With two resident slots the third open evicts the first tenant,
    which has no snapshot yet because it was never solved.  Returns how
    many probe solves came back ``unknown_instance`` (1 while eviction
    drops unsolved sessions, 0 once it preserves them).
    """
    from repro.graphs.generators import heavy_tailed_instance
    from repro.graphs.io import instance_to_json

    probe = [heavy_tailed_instance(120, seed=[seed, k]) for k in range(3)]
    hashes = []
    for inst in probe:
        reply = child.control.call(_line({"op": "open", "instance": json.loads(instance_to_json(inst))}))
        hashes.append(reply["instance_hash"])
    reply = child.control.call(_line({"op": "solve", "instance_hash": hashes[0], "request": {}}))
    return int(not reply.get("ok") and reply["error"]["type"] == "unknown_instance")


def _service_run(root, workdir, seed, seconds, texts, hashes, core, trace_out=None,
                 probe=False):
    clock = HostClock()
    t0 = time.perf_counter()
    child = _Child(root, workdir, seed, trace_out, core)
    try:
        opens = [_line({"op": "open", "instance": json.loads(text)}) for text in texts]
        for k, h in enumerate(hashes):
            child.control.call(opens[k])
            reply = child.control.call(_line({"op": "solve", "instance_hash": h, "request": {}}))
            if not reply.get("ok"):
                raise RuntimeError(f"priming solve failed: {reply}")
        setup_raw = time.perf_counter() - t0
        child.probe(clock, PAUSE_PROBES)
        before = child.control.call(_line({"op": "stats"}))["counters"]
        if trace_out is not None:
            # Drop the priming solves from the service's spans.
            child.proc.send_signal(signal.SIGUSR1)
            child.control.call(_line({"op": "stats"}))
        loop_s, rows = _drive(child, seconds, seed, opens, hashes, clock)
        after = child.control.call(_line({"op": "stats"}))["counters"]
        lost = _eviction_probe(child, seed) if probe else 0
        child.control.call(_line({"op": "shutdown"}))
    finally:
        child.close()
    counters = {k: after[k] - before.get(k, 0) for k in after}
    return {"rows": rows, "loop_s": loop_s, "counters": counters, "probe_lost": lost,
            "setup_raw": setup_raw, "clock": clock}


def _gate(rows, instances, gate) -> dict:
    """Gate every ok solve/reroll reply; count failed replies by type."""
    errors: dict[str, int] = {}
    for row in rows:
        reply = row["reply"]
        if not reply.get("ok"):
            kind = reply.get("error", {}).get("type", "unknown")
            errors[kind] = errors.get(kind, 0) + 1
            row["failed"] = True
            continue
        row["failed"] = False
        if row["event"] is None:
            continue
        report = reply["report"]
        cert = report["certificate"]
        certified = bool(cert and (cert["small_frontier"] or cert["mass_condition"]))
        instance = instances[row["event"]["tenant"]]
        mask = np.zeros(instance.n_edges, dtype=bool)
        mask[report["edge_mask"]["true_edges"]] = True
        row["ratio"] = gate.check(instance, mask, certified, row["event"]["epsilon"])
        if row["ratio"] is None:
            row["failed"] = True
            errors["gate"] = errors.get("gate", 0) + 1
        row["mpc_rounds"] = report["mpc_rounds"]
    return errors


def _latency(run) -> list[float]:
    """Latencies from the moment the caller was ready, at reference host
    speed."""
    return [run["clock"].rescale(r["done"] - r["due"]) for r in run["rows"]
            if not r["failed"] and r["done"] is not None]


def _throughput(run) -> float:
    """Replies completed per second of loop time, at reference host speed."""
    done = [r for r in run["rows"] if not r["failed"] and r["done"] is not None]
    if not done:
        return 0.0
    return len(done) / run["clock"].rescale(run["loop_s"])


def _read_trace(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def run_service_mixed(seed: int, seconds: float, trace: bool, root: Path) -> dict:
    import metrics as bench
    from gate import Gate
    from repro.graphs.io import instance_to_json
    from repro.serve.shm import instance_hash
    from workloads import EPSILON

    import layers

    workdir = root / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True)
    service_core, generator_core = _cores()
    try:
        instances = tenants()
        texts = [instance_to_json(inst) for inst in instances]
        hashes = [instance_hash(inst) for inst in instances]
        gate = Gate(EPSILON)
        if not trace:
            # The service's set-up (process start, priming solves) is
            # timed SETUP_REPEATS times; the last service is measured.
            with _on_core(generator_core):
                setups = [_service_run(root, workdir, seed, 0.0, texts, hashes, service_core)
                          for _ in range(bench.SETUP_REPEATS - 1)]
                run = _service_run(root, workdir, seed, seconds, texts, hashes, service_core)
            setup_s = statistics.median(r["clock"].rescale(r["setup_raw"])
                                        for r in setups + [run])
            return _end_to_end(run, setup_s, instances, gate, bench)
        half = seconds / 2.0
        trace_out = workdir / "trace.json"
        with _on_core(generator_core):
            plain = _service_run(root, workdir, seed, half, texts, hashes, service_core,
                                 probe=True)
            traced = _service_run(root, workdir, seed, half, texts, hashes, service_core,
                                  trace_out=trace_out)
        return _per_layer(plain, traced, _read_trace(trace_out), instances, gate, layers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _end_to_end(run, setup_s, instances, gate, bench) -> dict:
    rows = run["rows"]
    errors = _gate(rows, instances, gate)
    attempted = len(rows)
    failed = sum(r["failed"] for r in rows)
    served = [r for r in rows if not r["failed"] and r["event"] is not None]
    by_tenant: dict[int, list[float]] = {}
    for r in served:
        by_tenant.setdefault(r["event"]["tenant"], []).append(r["ratio"])
    solves = [r["mpc_rounds"] for r in served if r["event"]["op"] == "solve"]
    metrics = {
        **bench.latency_digest(_latency(run) or [float("inf")]),
        "throughput_rps": _throughput(run),
        "ok_frac": (attempted - failed) / attempted,
        "approx_ratio": statistics.fmean(statistics.fmean(v) for v in by_tenant.values()),
        "mpc_rounds_mean": statistics.fmean(solves),
        "peak_rss_mb": bench.peak_rss_mb(children=True),
        "setup_s": setup_s,
    }
    raw = bench.latency_digest([r["done"] - r["due"] for r in served])
    print(f"host probe {run['clock'].probe_ms():.3f} ms in the service process; raw latency "
          f"p50 {raw['latency_p50_ms']:.4g} ms, tail {raw['latency_tail_ms']:.4g} ms")
    print(f"service: {attempted} requests, errors {json.dumps(errors)}, "
          f"counters {json.dumps(run['counters'])}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": "gate" not in errors, "failures": errors}


def _per_layer(plain, traced, trace, instances, gate, layers) -> dict:
    errors = _gate(plain["rows"], instances, gate)
    traced_errors = _gate(traced["rows"], instances, gate)
    rows = traced["rows"]
    # Requests the service executed (coalesced replies share one).
    executed = [r for r in rows if not r["reply"].get("coalesced")]
    n = max(1, len(executed))
    metrics = layers.layer_metrics(trace, n)
    total = trace["total"]
    handler = sum(total.get(k, 0.0) for k in
                  ("serve.session", "service.encode", "service.checkpoint", "service.restore"))
    round_trip = sum(r["done"] - r["sent"] for r in executed if r["done"] is not None)
    counters = traced["counters"]
    solve_rows = [r for r in rows if r["event"] is not None and r["event"]["op"] == "solve"]
    metrics.update({
        "service.queue_wait_ms": (round_trip - handler) * 1000.0 / n,
        "service.solve_ms": total.get("serve.session", 0.0) * 1000.0 / n,
        "service.encode_ms": total.get("service.encode", 0.0) * 1000.0 / n,
        "service.response_bytes": trace["counts"].get("service.response_bytes", 0.0)
        / max(1.0, trace["counts"].get("service.responses", 0.0)),
        "service.checkpoint_ms": total.get("service.checkpoint", 0.0) * 1000.0 / n,
        "service.checkpoints": counters.get("checkpoints", 0) / n,
        "service.restore_ms": total.get("service.restore", 0.0) * 1000.0 / n,
        "service.restores_warm": counters.get("restores_warm", 0) / n,
        "service.restores_cold": counters.get("restores_cold", 0) / n,
        "service.evictions": counters.get("evictions", 0) / n,
        "service.coalesced_frac": counters.get("coalesced", 0) / max(1, len(solve_rows)),
        "service.evicted_unsolved_lost": plain["probe_lost"],
        "bench.generator_lag_ms": statistics.fmean(r["sent"] - r["due"] for r in rows) * 1000.0,
        # Round-trip time no server-side layer span covers: waiting.
        "trace.unattributed_frac": max(0.0, round_trip - handler) / round_trip if round_trip else 0.0,
        "trace.overhead_frac": statistics.fmean(_latency(traced))
        / statistics.fmean(_latency(plain)) - 1.0,
    })
    for name, _ in layers.PER_LAYER:
        if name.startswith("service.errors."):
            metrics[name] = traced_errors.get(name.rsplit(".", 1)[1], 0)
    attempted = len(plain["rows"]) + len(rows)
    failed = sum(r["failed"] for r in plain["rows"] + rows)
    for kind, k in traced_errors.items():
        errors[kind] = errors.get(kind, 0) + k
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": "gate" not in errors, "failures": errors}
