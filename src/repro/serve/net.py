"""The network serving edge: an asyncio TCP front end.

:class:`NetServer` puts :class:`~repro.serve.server.ResilientCongestionServer`
on a socket.  The event loop owns the wire — framing, per-connection
backpressure, timeouts, graceful drain — and bridges every admitted
``predict`` into the threaded server via
``asyncio.wrap_future(server.submit(...))``, so all of the inner tier's
guarantees (bounded admission, deadline propagation, micro-batching,
worker supervision) hold unchanged for network callers.

Contract of the edge:

* **a garbage frame kills the connection, never the server** — every
  decode failure is a typed :class:`~repro.errors.ProtocolError`; the
  offending connection gets a best-effort typed goodbye and is closed;
* **backpressure is typed, not buffered** — a connection beyond its
  ``max_conn_inflight`` cap, or a full admission queue, is answered
  with an ``overloaded`` error frame immediately;
* **deadlines ride the wire** — a request's ``timeout_ms`` becomes the
  pipeline deadline inside the threaded tier, and the answer-wait on
  the bridged future is always bounded;
* **drain, then close** — shutdown (``SIGTERM`` under :meth:`run`, or
  :meth:`shutdown`) stops accepting, answers ``shutting_down`` to new
  predicts, waits for every in-flight answer, then drains the threaded
  server so every admitted request is served;
* **models swap without a restart** — a
  :class:`~repro.serve.server.RegistryWatcher` polls the model registry
  and hot-swaps a re-published model between micro-batches; ``stats``
  exposes the swap count and current model generation.

Tests and the benchmark drive the edge through
:func:`start_net_server`, which runs the event loop on a background
thread and hands back a synchronous :class:`NetServerHandle`.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from dataclasses import dataclass

from repro.errors import (
    DeadlineExceededError,
    DirectiveError,
    OverloadedError,
    ProtocolError,
    ReproError,
    ServeError,
    ServerClosedError,
)
from repro.hls.directives import DirectiveSet
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    error_message,
    read_frame,
    write_frame,
)
from repro.serve.server import RegistryWatcher, ResilientCongestionServer
from repro.serve.service import PredictRequest, PredictResponse

#: request types the edge understands
REQUEST_TYPES = ("predict", "health", "ready", "stats")


def error_code_for(exc: BaseException) -> str:
    """Map a library exception onto its wire error code."""
    if isinstance(exc, OverloadedError):
        return "overloaded"
    if isinstance(exc, DeadlineExceededError):
        return "deadline_exceeded"
    if isinstance(exc, ServerClosedError):
        return "server_closed"
    if isinstance(exc, ProtocolError):
        return "protocol"
    if isinstance(exc, (asyncio.TimeoutError, TimeoutError)):
        return "deadline_exceeded"
    if isinstance(exc, ReproError):
        return "serve_error"
    return "internal"


def _as_tuples(value):
    """JSON arrays, at every depth, as tuples."""
    if isinstance(value, list):
        return tuple(_as_tuples(item) for item in value)
    return value


def _directive_key_from_wire(entries: list) -> tuple:
    """Canonical :meth:`DirectiveSet.to_key` tuple from its JSON form.

    JSON turns every tuple level of a key into a list; the key becomes
    hashable again only once each level is a tuple.  Round-tripping
    through :class:`DirectiveSet` also sorts the entries, so a client's
    ordering never splits one configuration over two cache slots.
    Raises :class:`ServeError` on a key that does not describe a
    directive set of names and integers.
    """
    try:
        key = DirectiveSet.from_key(_as_tuples(entries)).to_key()
    except (DirectiveError, TypeError) as exc:
        raise ServeError(f"'directives' is not a directive key: {exc}") \
            from exc
    _, inlines, *numbered = key
    if not (
        all(isinstance(function, str) for (function,) in inlines)
        and all(
            isinstance(function, str) and isinstance(target, str)
            and isinstance(n, int) and not isinstance(n, bool)
            for kind in numbered for function, target, n in kind
        )
    ):
        raise ServeError(
            "'directives' entries must be names and integers, got "
            f"{entries!r}"
        )
    return key


def request_from_wire(message: dict) -> tuple[PredictRequest, float | None]:
    """Build a :class:`PredictRequest` from a ``predict`` frame.

    Returns ``(request, timeout_s)``; raises :class:`ServeError` on a
    malformed body (answered as a ``bad_request`` frame — a bad body is
    the *request's* problem, not the connection's).
    """
    design = message.get("design")
    if not isinstance(design, str) or not design:
        raise ServeError("predict needs a non-empty string 'design'")
    variant = message.get("variant", "baseline")
    if not isinstance(variant, str) or not variant:
        raise ServeError("'variant' must be a non-empty string")
    top = message.get("top", 5)
    if not isinstance(top, int) or isinstance(top, bool) or top < 1:
        raise ServeError(f"'top' must be a positive integer, got {top!r}")
    directives = message.get("directives")
    if directives is not None:
        if not isinstance(directives, list):
            raise ServeError("'directives' must be a list of entries")
        directives = _directive_key_from_wire(directives)
    timeout_ms = message.get("timeout_ms")
    timeout_s: float | None = None
    if timeout_ms is not None:
        if not isinstance(timeout_ms, (int, float)) \
                or isinstance(timeout_ms, bool) or timeout_ms <= 0:
            raise ServeError(
                f"'timeout_ms' must be a positive number, got {timeout_ms!r}"
            )
        timeout_s = float(timeout_ms) / 1e3
    request = PredictRequest(design=design, variant=variant, top=top,
                             directives=directives)
    return request, timeout_s


def response_to_wire(response: PredictResponse) -> dict:
    """Flatten a :class:`PredictResponse` into a JSON-ready result."""
    return {
        "design": response.request.design,
        "variant": response.request.variant,
        "regions": [
            {
                "source_file": region.source_file,
                "source_line": region.source_line,
                "vertical": round(float(region.vertical), 6),
                "horizontal": round(float(region.horizontal), 6),
                "n_ops": region.n_ops,
            }
            for region in response.regions
        ],
        "n_operations": response.n_operations,
        "predicted_max_vertical": round(
            float(response.predicted_max_vertical), 6),
        "predicted_max_horizontal": round(
            float(response.predicted_max_horizontal), 6),
        "model_source": response.model_source,
        "model_generation": response.model_generation,
        "degraded": response.degraded,
        "degraded_reason": response.degraded_reason,
        "latency_ms": round(response.latency_seconds * 1e3, 3),
        "batch_size": response.batch_size,
        "latency_cycles": response.latency_cycles,
        "resources": dict(response.resources),
    }


@dataclass
class NetServerConfig:
    """Knobs of the TCP edge (the inner tier has its own
    :class:`~repro.serve.server.ServerConfig`)."""

    host: str = "127.0.0.1"
    #: 0 = bind an ephemeral port (read it back from ``NetServer.port``)
    port: int = 0
    #: per-connection in-flight predict cap; beyond it requests are
    #: answered ``overloaded`` (backpressure, never buffering)
    max_conn_inflight: int = 32
    #: close a connection with nothing in flight after this much silence
    idle_timeout_s: float = 300.0
    #: a single frame write slower than this kills the connection
    write_timeout_s: float = 30.0
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    #: bound on waiting for in-flight answers during graceful drain
    drain_timeout_s: float = 10.0
    #: wait bound for answers to requests that carry no timeout_ms
    default_answer_timeout_s: float = 120.0
    #: extra answer-wait slack on top of a request's own timeout_ms
    answer_margin_s: float = 30.0
    #: poll the model registry and hot-swap re-published models
    watch_registry: bool = True
    registry_poll_s: float = 0.2

    def __post_init__(self) -> None:
        if self.max_conn_inflight < 1:
            raise ServeError(
                f"max_conn_inflight must be >= 1, got {self.max_conn_inflight}"
            )
        for name in ("idle_timeout_s", "write_timeout_s", "drain_timeout_s",
                     "default_answer_timeout_s", "registry_poll_s"):
            if getattr(self, name) <= 0:
                raise ServeError(f"{name} must be positive")


class _Connection:
    """Per-connection state: a write lock (responses from concurrent
    answer tasks must not interleave mid-frame) and the in-flight set."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.inflight: set[asyncio.Task] = set()
        self.alive = True


class NetServer:
    """Asyncio TCP front end over a :class:`ResilientCongestionServer`.

    Async lifecycle: ``await start()`` (warm + bind), then either
    ``await run()`` (serve until SIGTERM/SIGINT, then drain) or your
    own loop followed by ``await shutdown()``.  Synchronous callers use
    :func:`start_net_server`.
    """

    def __init__(
        self,
        server: ResilientCongestionServer,
        config: NetServerConfig | None = None,
    ) -> None:
        self.server = server
        self.config = config or NetServerConfig()
        self.watcher: RegistryWatcher | None = None
        self.port: int | None = None
        self._tcp: asyncio.AbstractServer | None = None
        self._draining = False
        self._shut_down = False
        self._warmed = False
        self._conns: set[_Connection] = set()
        self._inflight: set[asyncio.Task] = set()
        self._stats_lock = threading.Lock()
        self._stats = {
            "connections_opened": 0, "connections_closed": 0,
            "frames_read": 0, "responses_sent": 0,
            "protocol_errors": 0, "write_errors": 0,
            "rejected_conn_inflight": 0, "rejected_shutting_down": 0,
            "bad_requests": 0, "idle_closes": 0,
            "requests": {t: 0 for t in REQUEST_TYPES},
        }

    def _count(self, key: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._stats[key] += amount

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm the model (off-loop), start the registry watcher, bind."""
        await asyncio.to_thread(self.server.warm)
        self._warmed = True
        if self.config.watch_registry \
                and self.server.service.registry is not None:
            # started only after warm: the model the server warmed with
            # must not be re-adopted as a spurious first "swap"
            self.watcher = RegistryWatcher(
                self.server, poll_s=self.config.registry_poll_s
            )
            self.watcher.start()
        self._tcp = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.port = self._tcp.sockets[0].getsockname()[1]

    async def run(self) -> None:
        """Serve until SIGTERM/SIGINT, then drain gracefully."""
        if self._tcp is None:
            await self.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        hooked = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                hooked.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        try:
            await stop.wait()
        finally:
            for sig in hooked:
                loop.remove_signal_handler(sig)
            await self.shutdown(drain=True)

    async def shutdown(self, *, drain: bool = True) -> None:
        """Graceful drain-then-close (idempotent).

        Stops accepting connections, answers new predicts with
        ``shutting_down``, waits (bounded by ``drain_timeout_s``) for
        every in-flight answer to be written, then drains the threaded
        tier and closes every connection.  ``drain=False`` skips the
        waits: in-flight work is failed typed, never silently dropped.
        """
        if self._shut_down:
            return
        self._shut_down = True
        self._draining = True
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
        if drain and self._inflight:
            await asyncio.wait(
                set(self._inflight), timeout=self.config.drain_timeout_s
            )
        if self.watcher is not None:
            await asyncio.to_thread(self.watcher.stop)
        await asyncio.to_thread(
            lambda: self.server.close(drain=drain)
        )
        for conn in list(self._conns):
            self._close_conn(conn)

    def _close_conn(self, conn: _Connection) -> None:
        if not conn.alive:
            return
        conn.alive = False
        try:
            conn.writer.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # the wire
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        self._conns.add(conn)
        self._count("connections_opened")
        try:
            await self._conn_loop(reader, conn)
        except asyncio.CancelledError:
            pass  # event-loop teardown cancelled the handler mid-read
        finally:
            self._conns.discard(conn)
            self._count("connections_closed")
            self._close_conn(conn)
            try:
                await writer.wait_closed()
            except BaseException:
                pass

    async def _conn_loop(self, reader: asyncio.StreamReader,
                         conn: _Connection) -> None:
        while conn.alive:
            try:
                frame = await asyncio.wait_for(
                    read_frame(reader,
                               max_frame_bytes=self.config.max_frame_bytes),
                    timeout=self.config.idle_timeout_s,
                )
            except asyncio.TimeoutError:
                if conn.inflight:
                    continue  # busy, not idle: answers are still due
                self._count("idle_closes")
                return
            except ProtocolError as exc:
                # the edge's core promise: garbage kills the connection,
                # never the server — typed goodbye, then hang up
                self._count("protocol_errors")
                await self._safe_write(
                    conn, error_message(None, "protocol", str(exc))
                )
                return
            except (OSError, asyncio.IncompleteReadError):
                return  # transport died (possibly an injected net.read)
            if frame is None:
                return  # clean EOF between frames
            self._count("frames_read")
            await self._dispatch(conn, frame)

    async def _dispatch(self, conn: _Connection, frame: dict) -> None:
        msg_id = frame.get("id")
        mtype = frame.get("type")
        if mtype not in REQUEST_TYPES:
            self._count("bad_requests")
            await self._safe_write(conn, error_message(
                msg_id, "bad_request",
                f"unknown request type {mtype!r}; "
                f"expected one of {list(REQUEST_TYPES)}"
            ))
            return
        with self._stats_lock:
            self._stats["requests"][mtype] += 1
        if mtype == "health":
            await self._safe_write(
                conn, {"id": msg_id, "ok": True, "status": "ok"}
            )
        elif mtype == "ready":
            ready = bool(
                self._warmed and not self._draining
                and not self.server.stats()["supervisor_gave_up"]
            )
            await self._safe_write(conn, {
                "id": msg_id, "ok": True, "ready": ready,
                "model_generation": self.server.service.model_generation,
            })
        elif mtype == "stats":
            stats = await asyncio.to_thread(self.stats)
            await self._safe_write(
                conn, {"id": msg_id, "ok": True, "stats": stats}
            )
        else:
            await self._handle_predict(conn, msg_id, frame)

    async def _handle_predict(self, conn: _Connection, msg_id,
                              frame: dict) -> None:
        if self._draining:
            self._count("rejected_shutting_down")
            await self._safe_write(conn, error_message(
                msg_id, "shutting_down",
                "server is draining; retry against another instance"
            ))
            return
        if len(conn.inflight) >= self.config.max_conn_inflight:
            self._count("rejected_conn_inflight")
            await self._safe_write(conn, error_message(
                msg_id, "overloaded",
                f"connection already has {len(conn.inflight)} requests "
                f"in flight (cap {self.config.max_conn_inflight})"
            ))
            return
        try:
            request, timeout_s = request_from_wire(frame)
        except ServeError as exc:
            self._count("bad_requests")
            await self._safe_write(
                conn, error_message(msg_id, "bad_request", str(exc))
            )
            return
        try:
            future = self.server.submit(request, timeout_s=timeout_s)
        except ReproError as exc:
            # typed admission rejection (overloaded / server closed)
            await self._safe_write(
                conn, error_message(msg_id, error_code_for(exc), str(exc))
            )
            return
        task = asyncio.create_task(
            self._answer(conn, msg_id, future, timeout_s)
        )
        conn.inflight.add(task)
        self._inflight.add(task)
        task.add_done_callback(conn.inflight.discard)
        task.add_done_callback(self._inflight.discard)

    async def _answer(self, conn: _Connection, msg_id, future,
                      timeout_s: float | None) -> None:
        """Await one bridged future and write its response frame.

        The wait is always bounded (the request's own deadline plus a
        margin, or ``default_answer_timeout_s``): a lost future becomes
        a typed error frame, never a forever-pending request.
        """
        wait = (
            timeout_s + self.config.answer_margin_s
            if timeout_s is not None
            else self.config.default_answer_timeout_s
        )
        try:
            response = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=wait
            )
        except asyncio.CancelledError:
            raise  # loop teardown: the future's owner handles typing
        except BaseException as exc:
            body = error_message(
                msg_id, error_code_for(exc), str(exc) or repr(exc)
            )
        else:
            body = {"id": msg_id, "ok": True,
                    "result": response_to_wire(response)}
        await self._safe_write(conn, body)

    async def _safe_write(self, conn: _Connection, message: dict) -> None:
        """Write one frame under the connection's write lock; any
        failure (injected ``net.write``, slow peer, dead socket) closes
        the connection — the peer's retry logic owns recovery."""
        if not conn.alive:
            return
        try:
            async with conn.write_lock:
                await asyncio.wait_for(
                    write_frame(conn.writer, message,
                                max_frame_bytes=self.config.max_frame_bytes),
                    timeout=self.config.write_timeout_s,
                )
        except (OSError, ProtocolError, asyncio.TimeoutError,
                ConnectionResetError):
            self._count("write_errors")
            self._close_conn(conn)
        else:
            self._count("responses_sent")

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Edge + inner-tier statistics (the ``stats`` wire response)."""
        with self._stats_lock:
            net = {k: (dict(v) if isinstance(v, dict) else v)
                   for k, v in self._stats.items()}
        net["open_connections"] = len(self._conns)
        net["inflight_answers"] = len(self._inflight)
        net["draining"] = self._draining
        net["watcher"] = (
            self.watcher.stats() if self.watcher is not None else None
        )
        stats = self.server.stats()
        stats["net"] = net
        return stats


# ----------------------------------------------------------------------
# synchronous harness (tests, benchmarks, the CLI's background mode)
# ----------------------------------------------------------------------
class NetServerHandle:
    """A :class:`NetServer` running its event loop on a daemon thread,
    exposed synchronously: ``host``/``port`` to connect to, and
    :meth:`shutdown` to drain and join."""

    def __init__(self, net: NetServer) -> None:
        self.net = net
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._drain = True
        self._thread = threading.Thread(
            target=self._run, name="net-serve", daemon=True
        )

    @property
    def host(self) -> str:
        return self.net.config.host

    @property
    def port(self) -> int:
        port = self.net.port
        if port is None:
            raise ServeError("net server is not bound yet")
        return port

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.net.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.net.shutdown(drain=self._drain)

    def start(self, timeout_s: float = 60.0) -> "NetServerHandle":
        self._thread.start()
        if not self._ready.wait(timeout=timeout_s):
            raise ServeError("net server failed to start in time")
        if self._error is not None:
            raise self._error
        return self

    def shutdown(self, *, drain: bool = True,
                 timeout_s: float = 30.0) -> None:
        """Request drain-then-close and join the loop thread."""
        if self._loop is None or self._stop is None:
            return
        self._drain = drain
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            return  # loop already gone
        self._thread.join(timeout=timeout_s)

    def __enter__(self) -> "NetServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def start_net_server(
    server: ResilientCongestionServer,
    config: NetServerConfig | None = None,
) -> NetServerHandle:
    """Run a :class:`NetServer` on a background thread; returns the
    started :class:`NetServerHandle` (raises if warm/bind failed)."""
    handle = NetServerHandle(NetServer(server, config))
    return handle.start()
