"""The asyncio shell around :class:`~repro.service.session.ServiceSession`.

The daemon owns one session and serves it over two transports:

- a unix socket speaking the NDJSON protocol (one reply line per
  request line, strictly ordered per connection);
- a minimal HTTP endpoint: ``GET /metrics`` (Prometheus text, so a
  scraper can watch a live run), ``GET /status`` and ``POST /rpc``
  (one protocol frame as the JSON body).

All command execution is synchronous inside the event loop -- the
simulation itself is single-threaded and deterministic, so there is
exactly one machine mutator and no locking.  Long ``run``/``drain``
commands block other clients briefly; that is the price of determinism
and fine for a control plane.

SIGINT/SIGTERM are treated as ``drain``: in-flight work completes, the
session closes, the server exits 0.  A second signal aborts immediately.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from typing import Optional

from repro.service.session import ServiceSession


class ServiceDaemon:
    """Serve one session over a unix socket and/or HTTP."""

    def __init__(
        self,
        session: ServiceSession,
        socket_path: Optional[str] = None,
        http_port: Optional[int] = None,
        http_host: str = "127.0.0.1",
    ) -> None:
        if socket_path is None and http_port is None:
            raise ValueError("daemon needs a unix socket path or an HTTP port")
        self.session = session
        self.socket_path = socket_path
        self.http_port = http_port
        self.http_host = http_host
        self._shutdown = asyncio.Event()
        self._servers = []
        self.bound_http_port: Optional[int] = None

    # ------------------------------------------------------------------
    # NDJSON over the unix socket
    # ------------------------------------------------------------------
    async def _handle_socket(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                reply = self.session.handle_line(line)
                writer.write(reply)
                await writer.drain()
                if self.session.closed:
                    self._shutdown.set()
        except asyncio.CancelledError:
            pass  # loop shutdown with the connection still open
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # minimal HTTP
    # ------------------------------------------------------------------
    async def _handle_http(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            parts = request_line.decode("latin-1").split()
            method, path = (parts + ["", ""])[:2]
            content_length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    content_length = int(value.strip())
            body = await reader.readexactly(content_length) if content_length else b""
            status, ctype, payload = self._route_http(method, path, body)
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + payload
            )
            await writer.drain()
            if self.session.closed:
                self._shutdown.set()
        except asyncio.CancelledError:
            pass  # loop shutdown with the connection still open
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _route_http(self, method: str, path: str, body: bytes):
        import json

        if method == "GET" and path == "/metrics":
            reply = self.session.handle({"cmd": "metrics"})
            if reply.get("ok"):
                return "200 OK", "text/plain; version=0.0.4", reply["text"].encode()
            return "503 Service Unavailable", "text/plain", (
                f"# {reply.get('error')}: {reply.get('message')}\n".encode()
            )
        if method == "GET" and path == "/status":
            reply = self.session.handle({"cmd": "status"})
            return "200 OK", "application/json", (
                json.dumps(reply, sort_keys=True) + "\n"
            ).encode()
        if method == "POST" and path == "/rpc":
            reply_line = self.session.handle_line(body)
            return "200 OK", "application/json", reply_line
        return "404 Not Found", "text/plain", b"unknown endpoint\n"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _install_signal_handlers(self, loop) -> None:
        def drain_and_exit() -> None:
            if self.session.closed:
                self._shutdown.set()
                return
            print("repro daemon: signal received, draining...", file=sys.stderr)
            self.session.handle({"cmd": "shutdown"})
            self._shutdown.set()

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, drain_and_exit)
            except (NotImplementedError, ValueError, RuntimeError):
                # not the main thread (tests) or unsupported platform
                return

    async def serve(self) -> None:
        loop = asyncio.get_running_loop()
        self._install_signal_handlers(loop)
        if self.socket_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_socket, path=self.socket_path
            )
            self._servers.append(server)
        if self.http_port is not None:
            server = await asyncio.start_server(
                self._handle_http, host=self.http_host, port=self.http_port
            )
            self.bound_http_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        try:
            await self._shutdown.wait()
        finally:
            for server in self._servers:
                server.close()
                await server.wait_closed()
            self._servers = []


def run_daemon(
    socket_path: Optional[str] = None,
    http_port: Optional[int] = None,
    http_host: str = "127.0.0.1",
    preset: str = "steady",
    seed: int = 0,
    window_ns: float = 100_000.0,
    telemetry: bool = True,
    snapshot_dir: str = "service-snapshots",
    restore: Optional[str] = None,
) -> int:
    """Blocking entry point behind ``python -m repro daemon``."""
    session = ServiceSession(
        preset=preset,
        seed=seed,
        window_ns=window_ns,
        telemetry=telemetry,
        snapshot_dir=snapshot_dir,
    )
    if restore is not None:
        reply = session.handle({"cmd": "restore", "path": restore})
        if not reply.get("ok"):
            print(
                f"repro daemon: restore failed: {reply.get('message')}",
                file=sys.stderr,
            )
            return 1
        print(
            f"repro daemon: restored snapshot (replayed "
            f"{reply.get('replayed', 0)} commands, state {reply.get('state')})",
            file=sys.stderr,
        )
    daemon = ServiceDaemon(
        session,
        socket_path=socket_path,
        http_port=http_port,
        http_host=http_host,
    )
    where = []
    if socket_path is not None:
        where.append(f"unix:{socket_path}")
    if http_port is not None:
        where.append(f"http://{http_host}:{http_port}")
    print(f"repro daemon: serving on {' and '.join(where)}", file=sys.stderr)
    asyncio.run(daemon.serve())
    print("repro daemon: drained, bye", file=sys.stderr)
    return 0
