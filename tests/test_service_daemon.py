"""Tests for the asyncio daemon shell and the synchronous client: NDJSON
over a unix socket, the minimal HTTP bridge (/metrics, /status, /rpc),
malformed-input replies over the wire, and clean shutdown."""

import asyncio
import http.client
import json
import socket
import threading
import time

import pytest

from repro.service import ServiceClient, ServiceSession
from repro.service.client import ServiceClientError
from repro.service.daemon import ServiceDaemon


@pytest.fixture
def daemon(tmp_path):
    """One live daemon on a unix socket and an OS-assigned HTTP port."""
    session = ServiceSession(
        telemetry=True, snapshot_dir=str(tmp_path / "snaps")
    )
    sock = str(tmp_path / "repro.sock")
    d = ServiceDaemon(session, socket_path=sock, http_port=0)
    thread = threading.Thread(target=asyncio.run, args=(d.serve(),), daemon=True)
    thread.start()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if d.bound_http_port is not None:
            break
        time.sleep(0.02)
    assert d.bound_http_port is not None, "daemon did not come up"
    d.test_thread = thread
    d.test_socket_path = sock
    yield d
    if not session.closed:
        with ServiceClient(socket_path=sock) as client:
            client.command("shutdown")
    thread.join(timeout=10.0)
    assert not thread.is_alive()


class TestUnixSocket:
    def test_scripted_session_over_the_socket(self, daemon):
        with ServiceClient(socket_path=daemon.test_socket_path) as client:
            reply = client.command("ping")
            assert reply["ok"] and reply["pong"]
            reply = client.command(
                "submit", kind="serving", preset="steady", seed=0
            )
            assert reply["ok"] and reply["key"] == "serving:steady:0#0"
            reply = client.command("step", windows=2)
            assert reply["ok"] and reply["now_ns"] == 200_000.0
            reply = client.command("metrics")
            assert reply["ok"] and "# TYPE" in reply["text"]
            reply = client.command("events")
            assert reply["ok"] and reply["cursor"] > 0
            reply = client.command("reconfigure", max_batch=4)
            assert reply["ok"] and reply["applied"]["max_batch"] == 4
            reply = client.command("drain")
            assert reply["ok"] and reply["drained"]
            reply = client.command("report")
            assert reply["ok"] and json.loads(reply["report"])["scenario"]

    def test_request_ids_ride_the_wire(self, daemon):
        with ServiceClient(socket_path=daemon.test_socket_path) as client:
            assert client.request({"cmd": "ping", "id": 41})["id"] == 41

    def test_malformed_lines_get_structured_error_replies(self, daemon):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10.0)
        raw.connect(daemon.test_socket_path)
        fh = raw.makefile("rb")
        try:
            for line, code in [
                (b"{not json\n", "bad-json"),
                (b"[]\n", "bad-frame"),
                (b'{"cmd": "warp"}\n', "unknown-command"),
            ]:
                raw.sendall(line)
                reply = json.loads(fh.readline())
                assert reply["ok"] is False and reply["error"] == code
            # the connection survives bad frames
            raw.sendall(b'{"cmd": "ping"}\n')
            assert json.loads(fh.readline())["ok"]
        finally:
            fh.close()
            raw.close()

    def test_client_validates_frames_before_sending(self, daemon):
        with ServiceClient(socket_path=daemon.test_socket_path) as client:
            from repro.service import ProtocolError

            with pytest.raises(ProtocolError):
                client.command("definitely-not-a-command")

    def test_client_script_helper_stops_after_shutdown(self, daemon):
        with ServiceClient(socket_path=daemon.test_socket_path) as client:
            replies = client.script([
                {"cmd": "ping"},
                {"cmd": "status"},
                {"cmd": "shutdown"},
                {"cmd": "ping"},  # never sent: the daemon is gone
            ])
        assert len(replies) == 3
        assert replies[2]["closed"]
        daemon.test_thread.join(timeout=10.0)
        assert not daemon.test_thread.is_alive()


class TestHttp:
    def test_rpc_bridge(self, daemon):
        with ServiceClient(port=daemon.bound_http_port) as client:
            reply = client.command("ping")
            assert reply["ok"] and reply["pong"]
            reply = client.command("submit", kind="jobs", preset="mini", seed=0)
            assert reply["ok"]
            reply = client.command("run")
            assert reply["ok"] and reply["state"] == "idle"

    def test_status_endpoint(self, daemon):
        conn = http.client.HTTPConnection("127.0.0.1", daemon.bound_http_port)
        conn.request("GET", "/status")
        resp = conn.getresponse()
        payload = json.loads(resp.read())
        conn.close()
        assert resp.status == 200
        assert payload["ok"] and payload["state"] == "idle"

    def test_metrics_is_503_while_idle_then_prometheus_text(self, daemon):
        conn = http.client.HTTPConnection("127.0.0.1", daemon.bound_http_port)
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        body = resp.read().decode()
        conn.close()
        assert resp.status == 503 and "no-workload" in body

        with ServiceClient(socket_path=daemon.test_socket_path) as client:
            assert client.command(
                "submit", kind="serving", preset="steady", seed=0
            )["ok"]
            assert client.command("step", windows=1)["ok"]
        conn = http.client.HTTPConnection("127.0.0.1", daemon.bound_http_port)
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        body = resp.read().decode()
        conn.close()
        assert resp.status == 200
        assert resp.getheader("Content-Type", "").startswith("text/plain")
        assert "# TYPE" in body

    def test_unknown_path_is_404(self, daemon):
        conn = http.client.HTTPConnection("127.0.0.1", daemon.bound_http_port)
        conn.request("GET", "/nope")
        resp = conn.getresponse()
        resp.read()
        conn.close()
        assert resp.status == 404


class TestClientErrors:
    def test_cannot_connect_is_a_client_error(self, tmp_path):
        client = ServiceClient(socket_path=str(tmp_path / "absent.sock"))
        with pytest.raises(ServiceClientError):
            client.command("ping")

    def test_needs_an_address(self):
        with pytest.raises(ValueError):
            ServiceClient()
