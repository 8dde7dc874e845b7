"""Tests for the service daemon's wire protocol: frame decode/encode,
structured error replies for malformed input, and the contract that
every advertised command actually dispatches on a session."""

import json

import pytest

from repro.service import (
    COMMANDS,
    PROTOCOL_VERSION,
    ProtocolError,
    ServiceSession,
    decode_frame,
    encode_frame,
    error_reply,
    ok_reply,
)


# ----------------------------------------------------------------------
# decode_frame
# ----------------------------------------------------------------------
class TestDecodeFrame:
    def test_accepts_str_and_bytes(self):
        frame = decode_frame('{"cmd": "ping"}')
        assert frame == {"cmd": "ping"}
        frame = decode_frame(b'{"cmd": "ping", "id": 7}\n')
        assert frame["id"] == 7

    def test_bad_utf8_is_bad_encoding(self):
        with pytest.raises(ProtocolError) as err:
            decode_frame(b'\xff\xfe{"cmd": "ping"}')
        assert err.value.code == "bad-encoding"

    def test_bad_json_is_bad_json(self):
        with pytest.raises(ProtocolError) as err:
            decode_frame("{not json")
        assert err.value.code == "bad-json"

    def test_non_object_is_bad_frame(self):
        for line in ("[1, 2]", '"ping"', "42", "null"):
            with pytest.raises(ProtocolError) as err:
                decode_frame(line)
            assert err.value.code == "bad-frame"

    def test_missing_or_non_string_cmd_is_bad_frame(self):
        for line in ("{}", '{"cmd": 3}', '{"cmd": ""}', '{"cmd": null}'):
            with pytest.raises(ProtocolError) as err:
                decode_frame(line)
            assert err.value.code == "bad-frame"

    def test_unknown_command_lists_known_ones(self):
        with pytest.raises(ProtocolError) as err:
            decode_frame('{"cmd": "frobnicate"}')
        assert err.value.code == "unknown-command"
        assert "ping" in err.value.message

    def test_every_advertised_command_decodes(self):
        for cmd in COMMANDS:
            assert decode_frame(json.dumps({"cmd": cmd}))["cmd"] == cmd


# ----------------------------------------------------------------------
# encode_frame / reply envelopes
# ----------------------------------------------------------------------
class TestEncode:
    def test_encode_is_one_sorted_ndjson_line(self):
        line = encode_frame({"b": 1, "a": 2})
        assert line == b'{"a": 2, "b": 1}\n'
        assert line.count(b"\n") == 1

    def test_round_trip(self):
        frame = {"cmd": "submit", "kind": "serving", "seed": 3}
        assert decode_frame(encode_frame(frame)) == frame

    def test_ok_reply_carries_id_and_fields(self):
        reply = ok_reply(11, state="idle")
        assert reply == {"ok": True, "state": "idle", "id": 11}
        assert "id" not in ok_reply(None)

    def test_error_reply_shape(self):
        reply = error_reply("busy", "an epoch is live", request_id="x")
        assert reply == {
            "ok": False,
            "error": "busy",
            "message": "an epoch is live",
            "id": "x",
        }


# ----------------------------------------------------------------------
# session dispatch honours the advertised command set
# ----------------------------------------------------------------------
class TestDispatchContract:
    def test_every_command_has_a_session_handler(self):
        session = ServiceSession(telemetry=False)
        for cmd in COMMANDS:
            assert callable(getattr(session, f"_cmd_{cmd}", None)), cmd

    def test_ping_reports_protocol_version(self):
        session = ServiceSession(telemetry=False)
        reply = session.handle({"cmd": "ping"})
        assert reply["ok"] and reply["pong"]
        assert reply["protocol"] == PROTOCOL_VERSION

    def test_handle_line_turns_malformed_input_into_error_replies(self):
        session = ServiceSession(telemetry=False)
        cases = {
            b"{not json\n": "bad-json",
            b"[1, 2]\n": "bad-frame",
            b'{"cmd": "nope"}\n': "unknown-command",
            b'\xff\xfe\n': "bad-encoding",
        }
        for line, code in cases.items():
            reply = json.loads(session.handle_line(line))
            assert reply["ok"] is False
            assert reply["error"] == code

    def test_request_id_echoed_on_ok_and_error(self):
        session = ServiceSession(telemetry=False)
        assert session.handle({"cmd": "ping", "id": 5})["id"] == 5
        reply = session.handle({"cmd": "step", "id": "s1"})  # no workload
        assert reply["ok"] is False and reply["id"] == "s1"
        # handle_line recovers the id even for frames that fail decode late
        reply = json.loads(session.handle_line(b'{"cmd": "report", "id": 9}\n'))
        assert reply["id"] == 9

    def test_unknown_command_via_handle(self):
        session = ServiceSession(telemetry=False)
        reply = session.handle({"cmd": "bogus"})
        assert reply["ok"] is False and reply["error"] == "unknown-command"

    def test_closed_session_only_answers_ping_and_status(self):
        session = ServiceSession(telemetry=False)
        reply = session.handle({"cmd": "shutdown"})
        assert reply["ok"] and reply["closed"]
        assert session.handle({"cmd": "ping"})["ok"]
        assert session.handle({"cmd": "status"})["state"] == "closed"
        for cmd in ("submit", "step", "run", "drain", "snapshot"):
            reply = session.handle({"cmd": cmd})
            assert reply["ok"] is False and reply["error"] == "closed", cmd
