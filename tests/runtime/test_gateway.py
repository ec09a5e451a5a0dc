"""Unit and property tests for the serving gateway's building blocks.

Covers the pieces the chaos gate (tests/runtime/test_chaos_serve.py)
composes: the consistent-hash shard map (determinism + bounded remap),
the write-ahead log (torn-tail recovery, typed corruption, bitwise float
round-trips), the overload ladder (with a differential pin against the
earlier four-rung ladder), the idempotent sequence-aware ServingRuntime
update that makes WAL replay safe, and the worker kill ->
state-collection failover path.
"""

import asyncio
import hashlib
import json
import struct

import numpy as np
import pytest

from repro.runtime import (
    CheckpointError,
    ConsistentHashRing,
    GatewayConfig,
    ServingGateway,
    WalCorruptionError,
    WriteAheadLog,
    load_streaming_state,
    save_streaming_state,
)
from repro.runtime.gateway import ZScoreDetector, make_fleet_series, read_wal
from repro.runtime.gateway.admission import AdmissionController, OverloadState
from repro.runtime.serving import ServingRuntime

KEYS = [f"svc-{i}" for i in range(512)]


class TestConsistentHashRing:
    def test_deterministic_across_instances(self):
        a = ConsistentHashRing(["w0", "w1", "w2"], seed=7)
        b = ConsistentHashRing(["w2", "w0", "w1"], seed=7)  # order-free
        assert a.assignment(KEYS) == b.assignment(KEYS)

    def test_seed_changes_layout(self):
        a = ConsistentHashRing(["w0", "w1", "w2"], seed=0)
        b = ConsistentHashRing(["w0", "w1", "w2"], seed=1)
        assert a.assignment(KEYS) != b.assignment(KEYS)

    def test_every_key_assigned_and_inverse_consistent(self):
        ring = ConsistentHashRing(["w0", "w1", "w2", "w3"])
        shards = ring.shards(KEYS)
        assert set(shards) == {"w0", "w1", "w2", "w3"}
        flattened = {key: worker for worker, keys in shards.items()
                     for key in keys}
        assert flattened == ring.assignment(KEYS)

    def test_add_worker_moves_bounded_keys_only_to_newcomer(self):
        """Growing N=4 -> 5 moves ~K/N keys, all of them to the new
        worker — the property that keeps failover/scale-out cheap."""
        ring = ConsistentHashRing([f"w{i}" for i in range(4)])
        before = ring.assignment(KEYS)
        ring.add_worker("w4")
        after = ring.assignment(KEYS)
        moved = [key for key in KEYS if before[key] != after[key]]
        assert all(after[key] == "w4" for key in moved)
        # Expectation is K/N = 102; double it for hash variance.
        assert 0 < len(moved) <= 2 * len(KEYS) // 5

    def test_remove_worker_only_remaps_its_keys(self):
        ring = ConsistentHashRing([f"w{i}" for i in range(4)])
        before = ring.assignment(KEYS)
        ring.remove_worker("w2")
        after = ring.assignment(KEYS)
        for key in KEYS:
            if before[key] != "w2":
                assert after[key] == before[key]
            else:
                assert after[key] != "w2"

    def test_membership_errors(self):
        ring = ConsistentHashRing(["w0"])
        with pytest.raises(ValueError):
            ring.add_worker("w0")
        with pytest.raises(KeyError):
            ring.remove_worker("w9")
        ring.remove_worker("w0")
        with pytest.raises(RuntimeError):
            ring.assign("svc-0")

    def test_spread_is_roughly_uniform(self):
        ring = ConsistentHashRing([f"w{i}" for i in range(4)], replicas=64)
        counts = [len(keys) for keys in ring.shards(KEYS).values()]
        assert min(counts) > 0
        assert max(counts) < 2.5 * len(KEYS) / 4


class TestWriteAheadLog:
    def _fill(self, directory, count=40, segment_bytes=512):
        with WriteAheadLog(directory, segment_bytes=segment_bytes) as wal:
            for index in range(count):
                wal.append({"service": "svc-0", "sequence": index + 1,
                            "observation": [float(index), -1.5]})
            wal.commit()
        return directory

    def test_round_trip_with_rotation(self, tmp_path):
        self._fill(tmp_path / "wal", count=40, segment_bytes=512)
        records = read_wal(tmp_path / "wal")
        assert [r.lsn for r in records] == list(range(40))
        assert [r.payload["sequence"] for r in records] == \
            list(range(1, 41))
        segments = sorted((tmp_path / "wal").glob("wal-*.seg"))
        assert len(segments) > 1          # rotation actually happened

    def test_start_lsn_filter(self, tmp_path):
        self._fill(tmp_path / "wal")
        tail = read_wal(tmp_path / "wal", start_lsn=35)
        assert [r.lsn for r in tail] == [35, 36, 37, 38, 39]

    def test_torn_final_record_discarded_and_truncated(self, tmp_path):
        self._fill(tmp_path / "wal")
        last = sorted((tmp_path / "wal").glob("wal-*.seg"))[-1]
        intact = last.read_bytes()
        # Tear mid-body: full header, half the payload.
        last.write_bytes(intact + b"RW" + struct.pack("<II", 100, 0)
                         + b"{\"torn")
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert wal.durable_lsn == 39  # the 40 intact records survive
            lsn = wal.append({"service": "svc-0", "sequence": 41,
                              "observation": [0.0]})
            wal.commit()
            assert lsn == 40
        assert last.read_bytes()[:len(intact)] == intact
        assert [r.lsn for r in read_wal(tmp_path / "wal")] == \
            list(range(41))

    def test_torn_header_discarded(self, tmp_path):
        self._fill(tmp_path / "wal")
        last = sorted((tmp_path / "wal").glob("wal-*.seg"))[-1]
        intact = last.read_bytes()
        last.write_bytes(intact + b"RW\x10")  # 3 of 10 bytes
        assert len(read_wal(tmp_path / "wal")) == 40
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert last.read_bytes() == intact   # tail physically dropped
            lsn = wal.append({"service": "svc-0", "sequence": 41,
                              "observation": [0.0]})
            wal.commit()
            assert lsn == 40
        assert [r.lsn for r in read_wal(tmp_path / "wal")] == \
            list(range(41))

    def test_crc_corruption_raises_typed_error(self, tmp_path):
        self._fill(tmp_path / "wal")
        first = sorted((tmp_path / "wal").glob("wal-*.seg"))[0]
        data = bytearray(first.read_bytes())
        data[len(data) // 2] ^= 0xFF      # flip one payload byte mid-file
        first.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError):
            read_wal(tmp_path / "wal")

    def test_damage_in_nonfinal_segment_never_silently_dropped(self,
                                                               tmp_path):
        """A 'torn tail' pattern in an *earlier* segment is corruption —
        only the final segment may legally end mid-record."""
        self._fill(tmp_path / "wal")
        first = sorted((tmp_path / "wal").glob("wal-*.seg"))[0]
        first.write_bytes(first.read_bytes()[:-3])
        with pytest.raises(WalCorruptionError):
            read_wal(tmp_path / "wal")

    def test_float64_round_trips_bitwise(self, tmp_path):
        values = [0.1, 1e-308, np.pi, -0.0, 1.0 / 3.0, 2.0 ** 52 + 1]
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append({"observation": values})
            wal.commit()
        (record,) = read_wal(tmp_path / "wal")
        for sent, received in zip(values, record.payload["observation"]):
            assert struct.pack("<d", sent) == struct.pack("<d", received)

    def test_durable_lsn_tracks_commit(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert wal.durable_lsn == -1
            wal.append({"sequence": 1})
            wal.append({"sequence": 2})
            assert wal.durable_lsn == -1   # appended, not yet durable
            assert wal.commit() == 1
            assert wal.durable_lsn == 1


def _occupancy_walk(steps=2000, seed=7):
    """Seeded queue-occupancy walk: mostly small drifts, with one step in
    five a large jump, clipped to ``[0, 1]`` — it crosses every rung's
    threshold and hysteresis band many times."""
    rng = np.random.default_rng(seed)
    occupancy = 0.5
    walk = []
    for _ in range(steps):
        if rng.random() < 0.2:
            occupancy += rng.uniform(-0.6, 0.6)
        else:
            occupancy += rng.normal(0.0, 0.03)
        occupancy = min(max(occupancy, 0.0), 1.0)
        walk.append(occupancy)
    return walk


# SHA-256 of the "{degraded}{refused}" digit pairs, one per step of
# _occupancy_walk(), as the earlier four-rung ladder (NORMAL, SHED_LOW,
# DEGRADED, REFUSE; thresholds 0.60 / 0.80 / 0.95, hysteresis 0.10)
# answered them through OverloadLadder().observe.  With a single tenant
# SHED_LOW accepted exactly as NORMAL, so dropping that rung must leave
# every degraded/refused verdict unchanged.
_FOUR_RUNG_VERDICT_DIGEST = (
    "796f893991d870c4455d6e64ab7138140b99ec593030a20e20662acf20b91558")


class TestOverloadLadder:
    def test_ascends_immediately_possibly_multiple_rungs(self):
        ladder = AdmissionController()
        assert ladder.admit(0.97) is OverloadState.REFUSE
        assert ladder.transitions == 1

    def test_descends_one_rung_at_a_time_with_hysteresis(self):
        ladder = AdmissionController()
        ladder.admit(1.0)
        assert ladder.state is OverloadState.REFUSE
        # 0.9 is not hysteresis-clear of REFUSE_AT (0.95 - 0.1 = 0.85).
        assert ladder.admit(0.9) is OverloadState.REFUSE
        assert ladder.admit(0.2) is OverloadState.DEGRADED
        assert ladder.admit(0.2) is OverloadState.NORMAL
        assert ladder.admit(0.2) is OverloadState.NORMAL
        assert ladder.transitions == 3

    def test_boundary_hover_does_not_flap(self):
        ladder = AdmissionController()
        ladder.admit(0.85)
        assert ladder.state is OverloadState.DEGRADED
        for occupancy in (0.78, 0.81, 0.75, 0.82):
            ladder.admit(occupancy)
            assert ladder.state is OverloadState.DEGRADED
        assert ladder.admit(0.69) is OverloadState.NORMAL

    def test_verdicts_match_the_four_rung_ladder(self):
        ladder = AdmissionController()
        verdicts = []
        for occupancy in _occupancy_walk():
            state = ladder.admit(occupancy)
            verdicts.append(f"{int(state is OverloadState.DEGRADED)}"
                            f"{int(state is OverloadState.REFUSE)}")
        assert {"00", "10", "01"} <= set(verdicts)
        digest = hashlib.sha256("".join(verdicts).encode()).hexdigest()
        assert digest == _FOUR_RUNG_VERDICT_DIGEST


def _tiny_runtime(num_services=1, history_len=64, updates=8, window=16):
    fleet = make_fleet_series(num_services, history_len, updates)
    histories = {sid: series[:history_len] for sid, series in fleet.items()}
    streams = {sid: series[history_len:] for sid, series in fleet.items()}
    detector = ZScoreDetector().fit(sorted(histories),
                                    [histories[sid]
                                     for sid in sorted(histories)])
    runtime = ServingRuntime(detector, window=window)
    for sid in sorted(histories):
        runtime.start_service(sid, histories[sid])
    return runtime, streams


class TestIdempotentUpdate:
    def test_duplicate_sequence_is_acknowledged_without_reapply(self):
        runtime, streams = _tiny_runtime()
        stream = streams["svc-0"]
        runtime.update("svc-0", stream[0], sequence=1)
        before = json.dumps(runtime.state_dict(), sort_keys=True)
        outcome = runtime.update("svc-0", stream[0], sequence=1)
        assert outcome.duplicate
        assert not outcome.is_alert
        assert json.dumps(runtime.state_dict(), sort_keys=True) == before
        assert runtime.applied_sequence("svc-0") == 1

    def test_replayed_prefix_converges_to_same_state(self):
        """Re-delivering an arbitrary already-applied prefix (what WAL
        replay after a crash does) must be a no-op."""
        runtime, streams = _tiny_runtime()
        reference, _ = _tiny_runtime()
        stream = streams["svc-0"]
        for index, row in enumerate(stream):
            runtime.update("svc-0", row, sequence=index + 1)
            reference.update("svc-0", row, sequence=index + 1)
        for index, row in enumerate(stream[:5]):      # replay a prefix
            assert runtime.update("svc-0", row, sequence=index + 1).duplicate
        assert json.dumps(runtime.state_dict(), sort_keys=True) == \
            json.dumps(reference.state_dict(), sort_keys=True)

    def test_unsequenced_updates_still_flow(self):
        runtime, streams = _tiny_runtime()
        outcome = runtime.update("svc-0", streams["svc-0"][0])
        assert not outcome.duplicate
        assert runtime.applied_sequence("svc-0") == 0

    def test_sequence_must_be_positive(self):
        runtime, streams = _tiny_runtime()
        with pytest.raises(ValueError):
            runtime.update("svc-0", streams["svc-0"][0], sequence=0)

    def test_force_fallback_routes_to_spectral_scorer(self):
        runtime, streams = _tiny_runtime(history_len=128)
        outcome = runtime.update("svc-0", streams["svc-0"][0],
                                 sequence=1, force_fallback=True)
        assert outcome.used_fallback


class TestServingStateSnapshot:
    def test_snapshot_restores_sequence_high_water(self, tmp_path):
        runtime, streams = _tiny_runtime()
        for index, row in enumerate(streams["svc-0"]):
            runtime.update("svc-0", row, sequence=index + 1)
        path = tmp_path / "serving.json"
        save_streaming_state(runtime, path)

        restored, _ = _tiny_runtime()
        load_streaming_state(restored, path)
        assert restored.applied_sequence("svc-0") == len(streams["svc-0"])
        assert json.dumps(restored.state_dict(), sort_keys=True) == \
            json.dumps(runtime.state_dict(), sort_keys=True)

    # Each target loads exactly its own format; anything else is refused
    # and leaves the target untouched.
    def test_serving_snapshot_refused_by_bare_streaming_detector(self,
                                                                 tmp_path):
        runtime, streams = _tiny_runtime()
        runtime.update("svc-0", streams["svc-0"][0], sequence=1)
        path = tmp_path / "serving.json"
        save_streaming_state(runtime, path)

        bare, _ = _tiny_runtime()
        before = bare.streaming.state_dict()
        with pytest.raises(CheckpointError, match="streaming-state.v1"):
            load_streaming_state(bare.streaming, path)
        assert bare.streaming.state_dict() == before

    def test_streaming_snapshot_refused_by_serving_runtime(self, tmp_path):
        runtime, streams = _tiny_runtime()
        runtime.update("svc-0", streams["svc-0"][0], sequence=1)
        path = tmp_path / "streaming.json"
        save_streaming_state(runtime.streaming, path)

        restored, _ = _tiny_runtime()
        before = restored.state_dict()
        with pytest.raises(CheckpointError, match="serving-state.v2"):
            load_streaming_state(restored, path)
        assert restored.state_dict() == before

    def test_v1_serving_snapshot_refused(self, tmp_path):
        runtime, streams = _tiny_runtime()
        runtime.update("svc-0", streams["svc-0"][0], sequence=1)
        # The pre-v2 layout: streaming state and sequence marks only.
        state = runtime.state_dict()
        del state["services"]
        state["format"] = "repro.serving-state.v1"
        path = tmp_path / "serving-v1.json"
        path.write_text(json.dumps(state))

        restored, _ = _tiny_runtime()
        before = restored.state_dict()
        with pytest.raises(CheckpointError, match="serving-state.v1"):
            load_streaming_state(restored, path)
        assert restored.state_dict() == before


class TestKillThenCollect:
    def test_collect_right_after_kill_fails_over_bitwise(self, tmp_path):
        """``collect_states()`` straight after ``kill_worker()`` must see
        the worker dead, fail over, and return the pre-kill states."""
        fleet = make_fleet_series(3, 64, 6, seed=0)
        histories = {sid: series[:64] for sid, series in fleet.items()}
        streams = {sid: series[64:] for sid, series in fleet.items()}
        detector = ZScoreDetector().fit(
            sorted(histories), [histories[sid] for sid in sorted(histories)])
        gateway = ServingGateway(
            tmp_path, detector, histories,
            GatewayConfig(workers=1, window=16, queue_depth=64,
                          ack_timeout=5.0))

        async def session():
            await gateway.start()
            try:
                for service_id in sorted(streams):
                    for sequence, row in enumerate(streams[service_id], 1):
                        verdict = await gateway.submit(service_id, row,
                                                       sequence)
                        assert verdict.accepted
                before = await gateway.collect_states()
                shard = gateway.shard_of("svc-0")
                gateway.kill_worker(shard)
                after = await gateway.collect_states()
                respawns = gateway.status()["shards"][shard]["respawns"]
            finally:
                await gateway.drain()
            return before, after, respawns

        before, after, respawns = asyncio.run(session())
        assert respawns == 1
        assert json.dumps(after, sort_keys=True) == \
            json.dumps(before, sort_keys=True)


class TestDroppedSamples:
    def _gateway(self, directory):
        fleet = make_fleet_series(2, 64, 6, seed=0)
        histories = {sid: series[:64] for sid, series in fleet.items()}
        rows = {sid: [series[64], None, np.array([np.nan, series[66][1]]),
                      None, series[68], series[69]]
                for sid, series in fleet.items()}
        detector = ZScoreDetector().fit(
            sorted(histories), [histories[sid] for sid in sorted(histories)])
        config = GatewayConfig(workers=1, window=16, queue_depth=64,
                               ack_timeout=5.0)
        gateway = ServingGateway(directory, detector, histories, config)
        return gateway, histories, rows

    def test_dropped_and_nan_rows_survive_journal_and_failover(self,
                                                               tmp_path):
        """A dropped sample is journalled as ``null`` and imputed by the
        worker exactly as in process, through a kill and WAL replay."""
        gateway, histories, rows = self._gateway(tmp_path)

        async def session():
            await gateway.start()
            try:
                shard = gateway.shard_of("svc-0")
                for service_id in sorted(rows):
                    for sequence, row in enumerate(rows[service_id], 1):
                        verdict = await gateway.submit(service_id, row,
                                                       sequence)
                        assert verdict.accepted
                # A poisoned shard crash-loops instead of answering.
                before = await asyncio.wait_for(gateway.collect_states(), 60)
                gateway.kill_worker(shard)
                after = await asyncio.wait_for(gateway.collect_states(), 60)
                await gateway.drain()
            finally:
                gateway.close()
            return shard, before, after

        shard, before, after = asyncio.run(session())
        journalled = {(r.payload["service"], r.payload["sequence"]):
                      r.payload["observation"]
                      for r in read_wal(tmp_path / shard / "wal")}
        assert len(journalled) == 12
        assert journalled[("svc-0", 2)] is None
        assert np.isnan(journalled[("svc-0", 3)][0])

        reference = ServingRuntime(gateway.detector, window=16,
                                   q=gateway.config.q)
        for service_id in sorted(histories):
            reference.start_service(service_id, histories[service_id])
        for service_id in sorted(rows):
            for sequence, row in enumerate(rows[service_id], 1):
                reference.update(service_id, row, sequence=sequence)
        expected = json.dumps(reference.state_dict(), sort_keys=True)
        assert json.dumps(before[shard], sort_keys=True) == expected
        assert json.dumps(after[shard], sort_keys=True) == expected

    def test_wrong_width_row_refused_before_journalling(self, tmp_path):
        gateway, _, rows = self._gateway(tmp_path)

        async def session():
            await gateway.start()
            try:
                for bad in ([1.0, 2.0, 3.0], np.float64(1.0)):
                    with pytest.raises(ValueError,
                                       match="expects 2 features"):
                        await gateway.submit("svc-0", bad, 1)
                shard = gateway.shard_of("svc-0")
                assert gateway.accepted_sequence("svc-0") == 0
                assert gateway.status()["shards"][shard]["wal_lsn"] == 0
                verdict = await gateway.submit("svc-0", rows["svc-0"][0], 1)
                assert verdict.accepted
                await gateway.drain()
            finally:
                gateway.close()

        asyncio.run(session())


class _CountingDetector(ZScoreDetector):
    """Z-score detector that counts ``score`` calls and can be made to
    fail, so a test can see calibration work and drive the breaker."""

    def __init__(self):
        super().__init__()
        self.score_calls = 0
        self.fail = False

    def score(self, service_id, series):
        self.score_calls += 1
        if self.fail:
            raise RuntimeError("scripted scoring failure")
        return super().score(service_id, series)


class TestSnapshotFirstRespawn:
    """The worker restores a v2 snapshot instead of calibrating, and
    falls back to calibration whenever the snapshot cannot stand alone."""

    WINDOW = 16

    def _fleet(self):
        fleet = make_fleet_series(3, 96, 260, seed=1)
        histories = {sid: series[:96] for sid, series in fleet.items()}
        rows = []          # (service, row, sequence, force_fallback)
        for index in range(260):
            for number, sid in enumerate(sorted(fleet)):
                row = fleet[sid][96 + index]
                if (index + number) % 17 == 3:
                    row = None
                elif (index + number) % 13 == 5:
                    row = row.copy()
                    row[index % 2] = np.nan if index % 3 else np.inf
                rows.append((sid, row, index + 1, index % 11 == 7))
        return histories, rows

    def _payload(self, detector, histories, snapshot_path):
        return {"detector": detector, "window": self.WINDOW, "q": 1e-3,
                "services": {sid: history.tolist()
                             for sid, history in histories.items()},
                "snapshot_path": str(snapshot_path)}

    def _served(self, detector, histories, rows):
        """A runtime that served ``rows`` (the breaker tripping midway),
        as the worker that wrote the snapshot would have."""
        runtime = ServingRuntime(detector, window=self.WINDOW, q=1e-3)
        for sid in sorted(histories):
            runtime.start_service(sid, histories[sid])
        self._apply(runtime, detector, rows, fail=range(40, 70))
        return runtime

    @staticmethod
    def _apply(runtime, detector, rows, fail=()):
        outcomes = []
        for index, (sid, row, sequence, degraded) in enumerate(rows):
            detector.fail = index in fail
            outcomes.append(runtime.update(sid, row, sequence=sequence,
                                           force_fallback=degraded))
        detector.fail = False
        return outcomes

    @pytest.fixture
    def counters(self, monkeypatch):
        from repro.eval.spot import Spot

        counts = {"initialize": 0}
        initialize = Spot.initialize

        def counting(spot, scores):
            counts["initialize"] += 1
            return initialize(spot, scores)

        monkeypatch.setattr(Spot, "initialize", counting)
        return counts

    def test_v2_snapshot_skips_calibration_and_matches_bitwise(
            self, tmp_path, counters):
        from repro.runtime.gateway.worker import _build_runtime

        histories, rows = self._fleet()
        detector = _CountingDetector().fit(
            sorted(histories), [histories[sid] for sid in sorted(histories)])
        served = self._served(detector, histories, rows[:300])
        path = save_streaming_state(served, tmp_path / "snapshot.json")
        assert any(health.transitions for health
                   in (served.health(sid) for sid in served.services()))

        detector.score_calls = counters["initialize"] = 0
        restored = _build_runtime(self._payload(detector, histories, path))
        assert detector.score_calls == 0
        assert counters["initialize"] == 0

        overlaid = ServingRuntime(detector, window=self.WINDOW, q=1e-3)
        for sid in sorted(histories):
            overlaid.start_service(sid, histories[sid])
        load_streaming_state(overlaid, path)

        def canonical(runtime):
            return json.dumps(runtime.state_dict(), sort_keys=True)

        assert canonical(restored) == canonical(overlaid) == \
            canonical(served)
        tail = rows[300:500]
        assert any(row is None for _, row, _, _ in tail)
        assert any(row is not None and not np.isfinite(row).all()
                   for _, row, _, _ in tail)
        assert any(degraded for _, _, _, degraded in tail)
        expected = self._apply(served, detector, tail, fail=range(20, 45))
        for runtime in (restored, overlaid):
            assert self._apply(runtime, detector, tail,
                               fail=range(20, 45)) == expected
            assert canonical(runtime) == canonical(served)

    @pytest.mark.parametrize("damage", ["missing", "torn", "v1",
                                        "extra_service", "missing_service"])
    def test_unusable_snapshot_falls_back_to_calibration(
            self, tmp_path, counters, damage):
        from repro.runtime.gateway.worker import _build_runtime

        histories, rows = self._fleet()
        detector = _CountingDetector().fit(
            sorted(histories), [histories[sid] for sid in sorted(histories)])
        served = self._served(detector, histories, rows[:120])
        path = save_streaming_state(served, tmp_path / "snapshot.json")
        payload_histories = dict(histories)
        if damage == "missing":
            path.unlink()
        elif damage == "torn":
            path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])
        elif damage == "v1":
            state = served.state_dict()
            del state["services"]
            state["format"] = "repro.serving-state.v1"
            path.write_text(json.dumps(state))
        elif damage == "extra_service":
            del payload_histories["svc-2"]
        else:
            extra = make_fleet_series(4, 96, 1, seed=1)["svc-3"][:96]
            payload_histories["svc-3"] = extra
            detector.prepare_service("svc-3", extra)

        detector.score_calls = counters["initialize"] = 0
        runtime = _build_runtime(
            self._payload(detector, payload_histories, path))
        assert counters["initialize"] == len(payload_histories)
        assert detector.score_calls == len(payload_histories)
        assert sorted(runtime.services()) == sorted(payload_histories)
        assert all(runtime.applied_sequence(sid) == 0
                   for sid in runtime.services())

        calibrated = ServingRuntime(detector, window=self.WINDOW, q=1e-3)
        for sid in sorted(payload_histories):
            calibrated.start_service(sid, payload_histories[sid])
        assert json.dumps(runtime.state_dict(), sort_keys=True) == \
            json.dumps(calibrated.state_dict(), sort_keys=True)
