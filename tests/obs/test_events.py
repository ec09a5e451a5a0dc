"""Structured event log: schema, ordering, file durability, torn lines."""

import json

from repro.obs.events import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    EventLog,
    emit,
    get_event_log,
    install_event_log,
    read_jsonl,
)


class TestEventLog:
    def test_records_carry_schema_seq_ts_kind(self):
        log = EventLog(clock=lambda: 123.5)
        record = log.emit("epoch", epoch=1, loss=0.25)
        assert record == {"schema": SCHEMA_VERSION, "seq": 0, "ts": 123.5,
                          "kind": "epoch", "epoch": 1, "loss": 0.25}

    def test_seq_is_monotonic(self):
        log = EventLog()
        seqs = [log.emit("epoch", epoch=i)["seq"] for i in range(5)]
        assert seqs == [0, 1, 2, 3, 4]

    def test_tail_filter_by_kind(self):
        log = EventLog()
        log.emit("epoch", epoch=0)
        log.emit("retry", group="g0")
        log.emit("epoch", epoch=1)
        assert len(log.events("epoch")) == 2
        assert len(log.events()) == 3

    def test_tail_is_bounded(self):
        log = EventLog(keep=3)
        for index in range(10):
            log.emit("epoch", epoch=index)
        assert [e["epoch"] for e in log.events()] == [7, 8, 9]

    def test_payload_coercion(self, tmp_path):
        import numpy as np

        log = EventLog()
        record = log.emit("checkpoint_save",
                          path=tmp_path / "ckpt.npz",
                          loss=np.float64(1.5),
                          batches=(1, 2),
                          nested={"a": np.int64(3)})
        json.dumps(record)  # everything must be JSON-native already
        assert record["path"].endswith("ckpt.npz")
        assert record["loss"] == 1.5
        assert record["batches"] == [1, 2]
        assert record["nested"] == {"a": 3.0}

    def test_catalogue_covers_shipped_instrumentation(self):
        assert {"health_transition", "breaker_trip", "checkpoint_save",
                "checkpoint_rewind", "nonfinite_batch", "epoch",
                "attempt_start", "attempt_end", "retry", "group_done",
                "group_failed"} <= EVENT_KINDS


class TestFileBackedLog:
    def test_appends_jsonl_and_reads_back(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("epoch", epoch=0, loss=1.0)
            log.emit("retry", group="g0", backoff_seconds=0.5)
        records = list(read_jsonl(path))
        assert [r["kind"] for r in records] == ["epoch", "retry"]
        assert all(r["schema"] == SCHEMA_VERSION for r in records)

    def test_read_filters_by_kind(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("epoch", epoch=0)
            log.emit("retry", group="g0")
        retries = [r for r in read_jsonl(path) if r["kind"] == "retry"]
        assert retries == log.events("retry")

    def test_reopening_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("epoch", epoch=0)
        with EventLog(path) as log:
            log.emit("epoch", epoch=1)
        assert len(list(read_jsonl(path))) == 2

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("epoch", epoch=0)
            log.emit("epoch", epoch=1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "seq": 2, "kind": "ep')  # the crash
        records = list(read_jsonl(path))
        assert [r["epoch"] for r in records] == [0, 1]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('\n{"schema": 1, "seq": 0, "kind": "epoch"}\n\n')
        assert len(list(read_jsonl(path))) == 1


class TestModuleLevelEmit:
    def test_emit_goes_to_installed_log(self):
        mine = EventLog()
        previous = install_event_log(mine)
        try:
            emit("nonfinite_batch", epoch=2, batch=7)
            assert get_event_log() is mine
            assert mine.events("nonfinite_batch")[0]["batch"] == 7
        finally:
            install_event_log(previous)
        assert get_event_log() is previous
