"""Tests for the per-machine object manager and access statistics."""

from __future__ import annotations

import pytest

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig, ReplicationParams
from repro.errors import RtsError, UnknownObjectError
from repro.rts.manager import ObjectManager
from repro.rts.object_model import RETRY, ObjectSpec, operation
from repro.rts.p2p.replication_policy import ReplicationPolicy
from repro.rts.stats import AccessStats


class Register(ObjectSpec):
    def init(self, value=0):
        self.value = value

    @operation(write=False)
    def read(self):
        return self.value

    @operation(write=True)
    def assign(self, value):
        self.value = value
        return value

    @operation(write=True, guard=lambda self: self.value > 0)
    def consume(self):
        self.value -= 1
        return self.value


@pytest.fixture
def manager():
    cluster = Cluster(ClusterConfig(num_nodes=1, seed=1))
    try:
        yield ObjectManager(cluster.node(0))
    finally:
        cluster.shutdown()


class TestObjectManager:
    def test_install_and_read(self, manager):
        manager.install(1, "reg", Register.create((5,)))
        result = manager.execute_read(1, Register.operation_def("read"), ())
        assert result == 5
        assert manager.stats.local_reads == 1

    def test_duplicate_install_rejected(self, manager):
        manager.install(1, "reg", Register.create())
        with pytest.raises(RtsError):
            manager.install(1, "reg", Register.create())

    def test_unknown_object_raises(self, manager):
        with pytest.raises(UnknownObjectError):
            manager.get(99)

    def test_apply_write_bumps_version(self, manager):
        manager.install(1, "reg", Register.create((0,)))
        replica = manager.get(1)
        manager.apply_write_to(replica, Register.operation_def("assign"), (7,))
        assert replica.version == 1
        assert replica.instance.value == 7

    def test_guard_failure_does_not_bump_version(self, manager):
        manager.install(1, "reg", Register.create((0,)))
        result = manager.apply_write_to(manager.get(1), Register.operation_def("consume"), ())
        assert result is RETRY
        assert manager.get(1).version == 0
        assert manager.stats.guard_retries == 1

    def test_change_notification_fires_once(self, manager):
        manager.install(1, "reg", Register.create((0,)))
        calls = []
        manager.get(1).on_next_change(lambda: calls.append(1))
        manager.apply_write_to(manager.get(1), Register.operation_def("assign"), (1,))
        manager.apply_write_to(manager.get(1), Register.operation_def("assign"), (2,))
        assert calls == [1]

    def test_invalidate_and_discard(self, manager):
        manager.install(1, "reg", Register.create((0,)))
        manager.invalidate(1)
        assert not manager.has_valid_copy(1)
        with pytest.raises(RtsError):
            manager.execute_read(1, Register.operation_def("read"), ())
        manager.discard(1)
        assert len(manager) == 0


class TestAccessStats:
    def test_ratio(self):
        stats = AccessStats()
        for _ in range(8):
            stats.note_read()
        stats.note_write()
        assert stats.ratio == pytest.approx(8.0)

    def test_all_read_ratio_is_infinite(self):
        stats = AccessStats()
        stats.note_read()
        assert stats.ratio == float("inf")

    def test_no_access_ratio_is_zero(self):
        assert AccessStats().ratio == 0.0

    def test_decay(self):
        stats = AccessStats()
        for _ in range(10):
            stats.note_read()
        stats.decay(0.5)
        assert stats.reads == pytest.approx(5.0)
        assert stats.total_reads == 10


class TestReplicationPolicy:
    def test_replicates_read_mostly_objects(self):
        policy = ReplicationPolicy(ReplicationParams(min_accesses=4))
        for _ in range(10):
            policy.access_stats(1, 0).note_read()
        policy.access_stats(1, 0).note_write()
        assert policy.should_fetch_copy(1, 0, has_copy=False)

    def test_does_not_replicate_before_min_accesses(self):
        policy = ReplicationPolicy(ReplicationParams(min_accesses=20))
        for _ in range(10):
            policy.access_stats(1, 0).note_read()
        assert not policy.should_fetch_copy(1, 0, has_copy=False)

    def test_drops_write_heavy_objects(self):
        policy = ReplicationPolicy(ReplicationParams(min_accesses=4))
        for _ in range(10):
            policy.access_stats(1, 0).note_write()
        policy.access_stats(1, 0).note_read()
        assert policy.should_drop_copy(1, 0, has_copy=True, is_primary=False)
        assert not policy.should_fetch_copy(1, 0, has_copy=False)

    def test_hysteresis_band_keeps_status_quo(self):
        params = ReplicationParams(replicate_threshold=4.0, drop_threshold=1.0,
                                   min_accesses=4)
        policy = ReplicationPolicy(params)
        # Ratio of 2 sits between the thresholds: neither replicate nor drop.
        for _ in range(8):
            policy.access_stats(1, 0).note_read()
        for _ in range(4):
            policy.access_stats(1, 0).note_write()
        assert not policy.should_fetch_copy(1, 0, has_copy=False)
        assert not policy.should_drop_copy(1, 0, has_copy=True, is_primary=False)

    def test_per_node_statistics_are_independent(self):
        policy = ReplicationPolicy(ReplicationParams(min_accesses=2))
        for _ in range(10):
            policy.access_stats(1, 0).note_read()
            policy.access_stats(1, 1).note_write()
        assert policy.should_fetch_copy(1, 0, has_copy=False)
        assert policy.should_drop_copy(1, 1, has_copy=True, is_primary=False)
