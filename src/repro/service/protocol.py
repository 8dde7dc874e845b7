"""The daemon's wire protocol: newline-delimited JSON frames.

One request frame per line, one reply frame per line, always in order.
A request is ``{"cmd": <name>, ...args}`` with an optional client-chosen
``"id"`` echoed verbatim in the reply.  Replies are ``{"ok": true, ...}``
or ``{"ok": false, "error": <code>, "message": <human text>}``.

The protocol is deliberately transport-agnostic: the unix-socket server,
the HTTP ``POST /rpc`` bridge, the in-process test harness and the CLI
client all funnel through :func:`decode_frame` / :func:`encode_frame`,
so malformed input produces the same structured error reply everywhere
instead of a stack trace.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Bumped when a frame field changes meaning; clients may check it via
#: ``ping``.
PROTOCOL_VERSION = 1

#: Every command the session dispatches, with a one-line contract.
COMMANDS: Dict[str, str] = {
    "ping": "liveness + protocol version",
    "status": "session state, active workload, archived reports",
    "submit": "start or feed a workload (kinds: serving, jobs, job, requests)",
    "step": "advance the active workload N windows",
    "run": "advance the active workload until it completes or quiesces",
    "report": "canonical JSON report (active workload or archived by key)",
    "metrics": "Prometheus text from the live telemetry hub",
    "events": "structured telemetry events since a cursor",
    "reconfigure": "swap serving/scheduling knobs at the next window",
    "chaos": "inject a seeded fault plan into the running workload",
    "snapshot": "persist a snapshot of the session",
    "restore": "rebuild a session from a snapshot (idle sessions only)",
    "drain": "quiesce: finish in-flight work, refuse new work",
    "shutdown": "drain, then close the session",
}


class ProtocolError(Exception):
    """A frame that cannot be dispatched (bad JSON, shape, or command)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def decode_frame(line) -> Dict[str, Any]:
    """Parse one request line into a command frame, strictly.

    Raises :class:`ProtocolError` (never json's) on malformed input so
    transports can turn any bad line into a structured error reply.
    """
    if isinstance(line, (bytes, bytearray)):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad-encoding", f"frame is not UTF-8: {exc}")
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad-json", f"frame is not valid JSON: {exc}")
    if not isinstance(frame, dict):
        raise ProtocolError(
            "bad-frame", f"frame must be a JSON object, got {type(frame).__name__}"
        )
    cmd = frame.get("cmd")
    if not isinstance(cmd, str) or not cmd:
        raise ProtocolError("bad-frame", 'frame needs a string "cmd" field')
    if cmd not in COMMANDS:
        known = ", ".join(sorted(COMMANDS))
        raise ProtocolError("unknown-command", f"unknown command {cmd!r}; known: {known}")
    return frame


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """One reply (or request) as a canonical NDJSON line."""
    return (json.dumps(frame, sort_keys=True) + "\n").encode("utf-8")


def ok_reply(request_id: Optional[Any] = None, **fields: Any) -> Dict[str, Any]:
    reply: Dict[str, Any] = {"ok": True}
    reply.update(fields)
    if request_id is not None:
        reply["id"] = request_id
    return reply


def error_reply(
    code: str, message: str, request_id: Optional[Any] = None
) -> Dict[str, Any]:
    reply: Dict[str, Any] = {"ok": False, "error": code, "message": message}
    if request_id is not None:
        reply["id"] = request_id
    return reply
