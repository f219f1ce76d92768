"""The ``serve_net`` workload: ``python -m repro serve-net`` over TCP.

The server runs in its own process with its defaults (only the port,
the cache directory and the design scale are given).  The load comes
from this process over at most two connections:

1. warm-up: every distinct request of the mix once, in order;
2. open loop: Poisson arrivals at the fixed rate :data:`OPEN_RATE`,
   each request timed from when it was due;
3. closed loop: :data:`CLOSED_DEPTH` requests in flight per connection
   until ``CLOSED_PER_SECOND × seconds`` are answered.

Every wire answer is compared with the in-process answer of
``CongestionService`` for the same request.
"""

from __future__ import annotations

import os
import queue
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import common

#: open-loop arrival rate (requests per second); fixed, never derived
#: from a run's measured capacity
OPEN_RATE = 100.0
#: open-loop arrivals per second of ``--seconds``
OPEN_SHARE = 0.35
#: requests in flight per connection in the closed loop
CLOSED_DEPTH = 4
CONNECTIONS = 2
#: closed-loop answers per second of ``--seconds``
CLOSED_PER_SECOND = 120
READY_TIMEOUT_S = 60.0
#: server starts per run (each ~1 s); set-up time is their median
SERVER_SETUPS = 7
_READY = re.compile(r"listening on ([0-9.]+):(\d+)")


def request_mix() -> list[tuple[str, str]]:
    """Distinct (design, variant) groups: every kernel with its
    variants and every multi-kernel paper combination."""
    from repro.kernels.combos import KERNEL_BUILDERS, PAPER_COMBINATIONS
    from repro.kernels.common import STANDARD_VARIANTS
    from repro.kernels.face_detection import VARIANTS as FACE_VARIANTS

    groups = []
    for name in KERNEL_BUILDERS:
        variants = FACE_VARIANTS if name == "face_detection" \
            else STANDARD_VARIANTS
        groups.extend((name, v) for v in variants)
    for combo in PAPER_COMBINATIONS:
        if combo not in KERNEL_BUILDERS:
            groups.extend((combo, v) for v in STANDARD_VARIANTS)
    return groups


def request_sequence(groups, n: int, rng: random.Random) -> list[dict]:
    return [
        {"design": d, "variant": v, "top": rng.randint(1, 10)}
        for d, v in (rng.choice(groups) for _ in range(n))
    ]


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """One ``serve-net`` process started through ``launcher.py``."""

    def __init__(self, work: str, tag: str, registry: str,
                 trace_out: str | None, cpus: set[int]) -> None:
        self.cache = os.path.join(work, f"{tag}-cache")
        shutil.copytree(registry, os.path.join(self.cache, "models"))
        self.lines: list[str] = []
        cmd = [
            sys.executable, os.path.join(common.BENCH_DIR, "launcher.py"),
            trace_out or "-", "--", "serve-net", "--port", "0",
            "--cache-dir", self.cache, "--scale", str(common.SCALE),
        ]
        ready: queue.Queue = queue.Queue()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        os.sched_setaffinity(self.proc.pid, cpus)

        def pump() -> None:
            for line in self.proc.stdout:
                self.lines.append(line.rstrip())
                match = _READY.search(line)
                if match:
                    ready.put(int(match.group(2)))
            ready.put(None)

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()
        try:
            port = ready.get(timeout=READY_TIMEOUT_S)
        except queue.Empty:
            port = None
        if port is not None:
            # a "ready" answer also means the SIGTERM drain is hooked
            conn = Conn(port)
            try:
                conn.send({"id": "ready", "type": "ready"})
                if not conn.recv().get("ready"):
                    port = None
            finally:
                conn.close()
        self.setup_s = time.perf_counter() - start
        if port is None:
            self.stop()
            raise common.PassFailed(
                "serve-net never became ready:\n" + "\n".join(self.lines[-20:])
            )
        self.port = port

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._pump.join(timeout=10)


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
class Conn:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, body: dict) -> None:
        from repro.serve.protocol import send_frame_sync

        send_frame_sync(self.sock, body)

    def recv(self) -> dict:
        from repro.serve.protocol import recv_frame_sync

        message = recv_frame_sync(self.sock)
        if message is None:
            raise ConnectionError("server closed the connection")
        return message

    def close(self) -> None:
        self.sock.close()


def _predict(rid: str, request: dict) -> dict:
    return {"id": rid, "type": "predict", **request}


def warm_up(conn: Conn, groups) -> dict[str, dict]:
    answers = {}
    for i, (design, variant) in enumerate(groups):
        rid = f"w{i}"
        conn.send(_predict(rid, {"design": design, "variant": variant,
                                 "top": 10}))
        answers[rid] = conn.recv()
    return answers


def open_loop(conns, requests, rng: random.Random):
    """Send ``requests`` at Poisson arrival times over ``conns``;
    returns per-id (due, sent, received, message)."""
    n = len(requests)
    due = []
    t = time.monotonic_ns() + 50_000_000
    for _ in range(n):
        t += int(rng.expovariate(OPEN_RATE) * 1e9)
        due.append(t)
    records: dict[str, list] = {}
    expected = [sum(1 for i in range(n) if i % len(conns) == c)
                for c in range(len(conns))]
    errors: list[BaseException] = []

    def receiver(c: int) -> None:
        try:
            for _ in range(expected[c]):
                message = conns[c].recv()
                records[message["id"]][2] = time.monotonic_ns()
                records[message["id"]][3] = message
        except BaseException as exc:  # reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=receiver, args=(c,))
               for c in range(len(conns))]
    for thread in threads:
        thread.start()
    for i, request in enumerate(requests):
        delay = (due[i] - time.monotonic_ns()) / 1e9
        if delay > 0:
            time.sleep(delay)
        rid = f"o{i}"
        records[rid] = [due[i], time.monotonic_ns(), None, None]
        conns[i % len(conns)].send(_predict(rid, request))
    for thread in threads:
        thread.join(timeout=60)
    if errors or any(thread.is_alive() for thread in threads):
        raise common.PassFailed(f"open loop failed: {errors}")
    return records


def closed_loop(conns, requests):
    """Keep :data:`CLOSED_DEPTH` requests in flight per connection."""
    records: dict[str, list] = {}
    share = [requests[c::len(conns)] for c in range(len(conns))]
    errors: list[BaseException] = []

    def client(c: int) -> None:
        try:
            todo = list(enumerate(share[c]))
            inflight = 0
            done = 0
            while done < len(share[c]):
                while todo and inflight < CLOSED_DEPTH:
                    i, request = todo.pop(0)
                    rid = f"c{c}-{i}"
                    records[rid] = [time.monotonic_ns(), None, None]
                    conns[c].send(_predict(rid, request))
                    inflight += 1
                message = conns[c].recv()
                records[message["id"]][1] = time.monotonic_ns()
                records[message["id"]][2] = message
                inflight -= 1
                done += 1
        except BaseException as exc:  # reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(len(conns))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors or any(thread.is_alive() for thread in threads):
        raise common.PassFailed(f"closed loop failed: {errors}")
    return records


# ----------------------------------------------------------------------
# answer checks
# ----------------------------------------------------------------------
_COMPARED = ("design", "variant", "regions", "n_operations",
             "predicted_max_vertical", "predicted_max_horizontal",
             "degraded", "latency_cycles", "resources")


def in_process_answers(groups, registry: str):
    """The wire form of each group's in-process answer (all regions),
    and the predictor that gave them."""
    from repro.flow.pipeline import FlowOptions
    from repro.serve.net import response_to_wire
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import CongestionService, PredictRequest

    service = CongestionService(
        common.MODEL, options=FlowOptions(scale=common.SCALE),
        registry=ModelRegistry(registry),
    )
    out = {}
    for design, variant in groups:
        response = service.predict(
            PredictRequest(design, variant, top=1_000_000)
        )
        out[(design, variant)] = response_to_wire(response)
    return out, service.predictor


def count_wrong(run: dict, expected: dict) -> int:
    """Wire answers of a session that differ from the in-process ones
    (a missing or error answer counts as wrong)."""
    wrong = 0
    for i, (design, variant) in enumerate(run["groups"]):
        wrong += not check_answer(
            run["warm"][f"w{i}"],
            {"design": design, "variant": variant, "top": 10}, expected)
    for i, request in enumerate(run["open_requests"]):
        wrong += not check_answer(run["open"][f"o{i}"][3], request, expected)
    for c in range(CONNECTIONS):
        for i, request in enumerate(run["closed_requests"][c::CONNECTIONS]):
            wrong += not check_answer(run["closed"][f"c{c}-{i}"][2], request,
                                      expected)
    return wrong


def check_answer(message: dict, request: dict, expected: dict) -> bool:
    if not message or not message.get("ok"):
        return False
    result = message["result"]
    want = dict(expected[(request["design"], request["variant"])])
    want["regions"] = want["regions"][:request["top"]]
    return all(result.get(k) == want[k] for k in _COMPARED)


def score_variants(predictor) -> dict:
    """Model error on the served face_detection variants (untimed)."""
    from repro.flow.c_to_fpga import run_flow_on_design
    from repro.flow.pipeline import FlowOptions
    from repro.fpga.device import xc7z020
    from repro.kernels.combos import build_kernel
    from repro.kernels.face_detection import VARIANTS

    from passes import ErrorTally

    options = FlowOptions(scale=common.SCALE)
    tally = ErrorTally()
    for variant in VARIANTS:
        design = build_kernel(common.DESIGN, scale=common.SCALE,
                              variant=variant)
        tally.add_flow(predictor,
                       run_flow_on_design(design, xc7z020(), options))
    return tally.result()


# ----------------------------------------------------------------------
def run_session(work: str, tag: str, seed: int, seconds: float,
                registry: str, trace_dir: str | None, server_cpus: set[int],
                quick: bool = False) -> dict:
    """Set up ``SERVER_SETUPS`` servers, load the last one, stop it.

    ``quick`` (the untraced comparison session of a traced run) starts
    one server and runs only the closed loop."""
    groups = request_mix()
    rng = random.Random(f"serve_net:{seed}")
    n_open = max(1, round(OPEN_RATE * seconds * OPEN_SHARE))
    open_requests = request_sequence(groups, n_open, rng)
    closed_requests = request_sequence(
        groups, max(CONNECTIONS, round(CLOSED_PER_SECOND * seconds)), rng
    )
    if quick:
        open_requests = []

    setups = []
    traces = []
    server = None
    n_setups = 1 if quick else SERVER_SETUPS
    for i in range(n_setups):
        trace_out = (os.path.join(trace_dir, f"{tag}-server{i}.json")
                     if trace_dir else None)
        server = Server(work, f"{tag}-server{i}", registry, trace_out,
                        server_cpus)
        setups.append(server.setup_s)
        if trace_out:
            traces.append(trace_out)
        if i < n_setups - 1:
            server.stop()
    conns = []
    try:
        conns = [Conn(server.port) for _ in range(CONNECTIONS)]
        warm = warm_up(conns[0], groups)
        stats_before = service_stats(conns[0])
        window_start = time.monotonic_ns()
        opened = open_loop(conns, open_requests, rng)
        closed_start = time.monotonic_ns()
        closed = closed_loop(conns, closed_requests)
        window_end = time.monotonic_ns()
        stats_after = service_stats(conns[0])
        rss = server.peak_rss_mb()
    finally:
        for conn in conns:
            conn.close()
        server.stop()
    return {
        "groups": groups, "setup_s": setups, "warm": warm,
        "open": opened, "open_requests": open_requests,
        "closed": closed, "closed_requests": closed_requests,
        "window": (window_start, window_end),
        "closed_window": (closed_start, window_end),
        "peak_rss_mb": rss, "traces": traces,
        "prediction_hit_ratio": _hit_ratio(stats_before, stats_after),
    }


def service_stats(conn: Conn) -> dict:
    """The server's own counters, read over the wire ``stats`` op."""
    conn.send({"id": "stats", "type": "stats"})
    return conn.recv()["stats"]["service"]


def _hit_ratio(before: dict, after: dict) -> float:
    hits = after["prediction_hits"] - before["prediction_hits"]
    misses = after["prediction_misses"] - before["prediction_misses"]
    return hits / (hits + misses) if hits + misses else 0.0
