"""Tests for service-session snapshots: mid-run snapshot -> restore ->
continue is byte-identical to never stopping, snapshots ride the PR 7
SnapshotStore, and restore refuses foreign snapshots and dirty
sessions."""

import json

from repro.core.runtime.checkpoint import Snapshot, SnapshotStore
from repro.service import ServiceSession
from repro.service.session import SESSION_SNAPSHOT_KIND


def fresh_session(tmp_path, **kwargs):
    kwargs.setdefault("telemetry", False)
    kwargs.setdefault("snapshot_dir", str(tmp_path / "snaps"))
    return ServiceSession(**kwargs)


def run_script(session, frames):
    replies = []
    for frame in frames:
        reply = session.handle(dict(frame))
        assert reply.get("ok"), (frame, reply)
        replies.append(reply)
    return replies


def latest_report(session):
    reply = session.handle({"cmd": "report"})
    assert reply["ok"], reply
    return reply["report"]


MIDRUN = [
    {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
    {"cmd": "step", "windows": 5},
]


class TestSnapshotRestore:
    def test_midrun_restore_continuation_is_byte_identical(self, tmp_path):
        # the uninterrupted session
        control = fresh_session(tmp_path)
        run_script(control, MIDRUN + [{"cmd": "run"}])
        expected = latest_report(control)

        # snapshot mid-run, restore into a fresh session, continue
        session = fresh_session(tmp_path)
        run_script(session, MIDRUN)
        reply = session.handle({"cmd": "snapshot"})
        assert reply["ok"] and reply["journal"] == 1
        path = reply["path"]

        restored = fresh_session(tmp_path)
        reply = restored.handle({"cmd": "restore", "path": path})
        assert reply["ok"] and reply["restored"]
        assert reply["replayed"] == 1
        assert reply["state"] == "running"
        assert reply["now_ns"] == 500_000.0
        run_script(restored, [{"cmd": "run"}])
        assert latest_report(restored) == expected

    def test_restore_replays_live_reconfigure_and_requests(self, tmp_path):
        script = MIDRUN + [
            {"cmd": "reconfigure", "max_batch": 6},
            {"cmd": "submit", "kind": "requests", "tenant": "interactive",
             "function": "saxpy", "items": 64, "count": 2},
            {"cmd": "step", "windows": 3},
        ]
        control = fresh_session(tmp_path)
        run_script(control, script + [{"cmd": "run"}])
        expected = latest_report(control)

        session = fresh_session(tmp_path)
        run_script(session, script)
        path = session.handle({"cmd": "snapshot"})["path"]

        restored = fresh_session(tmp_path)
        reply = restored.handle({"cmd": "restore", "path": path})
        assert reply["ok"] and reply["replayed"] == 3
        assert restored.workload.gateway.batcher.max_batch == 6
        run_script(restored, [{"cmd": "run"}])
        assert latest_report(restored) == expected

    def test_idle_snapshot_round_trips_archive_through_store(self, tmp_path):
        session = fresh_session(tmp_path)
        run_script(session, [
            {"cmd": "submit", "kind": "serving", "preset": "steady", "seed": 0},
            {"cmd": "run"},
        ])
        expected = latest_report(session)
        reply = session.handle({"cmd": "snapshot"})
        assert reply["ok"] and reply["journal"] == 0

        # no path: restore finds the latest snapshot in the store dir
        restored = fresh_session(tmp_path)
        reply = restored.handle({"cmd": "restore"})
        assert reply["ok"] and reply["state"] == "idle"
        assert latest_report(restored) == expected
        status = restored.handle({"cmd": "status"})
        assert status["reports"] == ["serving:steady:0#0"]

    def test_snapshot_sequences_and_workload_block(self, tmp_path):
        session = fresh_session(tmp_path)
        run_script(session, MIDRUN)
        first = session.handle({"cmd": "snapshot"})
        second = session.handle({"cmd": "snapshot"})
        assert (first["seq"], second["seq"]) == (0, 1)
        snapshot = SnapshotStore(str(tmp_path / "snaps")).load_latest()
        block = snapshot.workload
        assert block["kind"] == SESSION_SNAPSHOT_KIND
        assert {"warm", "node", "nodes"}.isdisjoint(block)
        assert block["boundary_ns"] == 500_000.0
        assert [e["frame"]["cmd"] for e in block["journal"]] == ["submit"]

    def test_restore_accepts_snapshot_with_warm_start_keys(self, tmp_path):
        # snapshots written while sessions had a warm-start option carry
        # "warm" and the node preset(s); restore ignores them
        control = fresh_session(tmp_path)
        run_script(control, MIDRUN + [{"cmd": "run"}])
        expected = latest_report(control)

        session = fresh_session(tmp_path)
        run_script(session, MIDRUN)
        path = tmp_path / "legacy.json"
        snapshot = Snapshot.from_json(
            open(session.handle({"cmd": "snapshot"})["path"]).read()
        )
        snapshot.workload.update(warm=True, node="mini", nodes=["mini"])
        path.write_text(snapshot.to_json())

        restored = fresh_session(tmp_path)
        reply = restored.handle({"cmd": "restore", "path": str(path)})
        assert reply["ok"] and reply["replayed"] == 1
        run_script(restored, [{"cmd": "run"}])
        assert latest_report(restored) == expected

    def test_restore_refuses_foreign_snapshot_kind(self, tmp_path):
        # a PR 7 checkpoint (workload kind "chaos-jobs") is not a session
        foreign = Snapshot(seq=0, taken_at_ns=0.0)
        foreign.workload = {"kind": "chaos-jobs", "preset": "mini"}
        path = tmp_path / "foreign.json"
        path.write_text(foreign.to_json())
        session = fresh_session(tmp_path)
        reply = session.handle({"cmd": "restore", "path": str(path)})
        assert reply["ok"] is False and reply["error"] == "wrong-kind"

    def test_restore_refuses_non_idle_session(self, tmp_path):
        session = fresh_session(tmp_path)
        run_script(session, MIDRUN)
        path = session.handle({"cmd": "snapshot"})["path"]
        reply = session.handle({"cmd": "restore", "path": path})
        assert reply["ok"] is False and reply["error"] == "not-idle"
        # a session with archived history is dirty too
        done = fresh_session(tmp_path)
        run_script(done, [
            {"cmd": "submit", "kind": "jobs", "preset": "mini", "seed": 0},
            {"cmd": "run"},
        ])
        reply = done.handle({"cmd": "restore", "path": path})
        assert reply["error"] == "not-idle"

    def test_restore_with_empty_store_is_no_snapshot(self, tmp_path):
        session = fresh_session(tmp_path)
        reply = session.handle({"cmd": "restore"})
        assert reply["ok"] is False and reply["error"] == "no-snapshot"
