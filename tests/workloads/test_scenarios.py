"""Tests for scenario kinds and the scenario registry."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.rts.object_model import execute_operation
from repro.workloads import PollableQueue, Scenario, ScenarioRegistry, WorkloadSpec
from repro.workloads.scenarios import scenario

BUILTIN_KINDS = ["bank-transfer", "counter-farm", "diurnal-trace",
                 "fifo-queue", "flash-crowd", "hot-spot", "hotspot-shift",
                 "kv-index", "kv-table", "multi-tenant-noisy-neighbour",
                 "policy-mix", "primary-churn", "queue-move",
                 "read-mostly-catalog", "rolling-restart", "scale-in"]


class TestRegistry:
    def test_builtin_kinds_registered(self):
        assert ScenarioRegistry.names() == BUILTIN_KINDS

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError):
            ScenarioRegistry.get("teapot")

    def test_create_uses_default_spec(self):
        created = ScenarioRegistry.create("read-mostly-catalog")
        assert created.spec.read_fraction == 0.98
        assert created.spec.popularity == "zipfian"

    def test_create_accepts_custom_spec(self):
        spec = WorkloadSpec(name="custom", num_keys=3)
        created = ScenarioRegistry.create("counter-farm", spec)
        assert created.spec is spec

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):

            @scenario("hot-spot")
            class Duplicate(Scenario):  # pragma: no cover - never instantiated
                def setup(self, rts, proc):
                    pass

                def perform(self, rts, proc, request):
                    pass

    def test_decorator_registers_and_sets_kind(self):
        @scenario("test-only-kind")
        class TestOnly(Scenario):
            def setup(self, rts, proc):
                pass

            def perform(self, rts, proc, request):
                pass

        try:
            assert TestOnly.kind == "test-only-kind"
            assert ScenarioRegistry.get("test-only-kind") is TestOnly
        finally:
            ScenarioRegistry._kinds.pop("test-only-kind")


class TestPollableQueue:
    def ops(self):
        return {name: PollableQueue.operation_def(name)
                for name in ("put", "poll", "size", "totals")}

    def test_fifo_order_and_empty_poll(self):
        queue = PollableQueue.create()
        ops = self.ops()
        execute_operation(queue, ops["put"], (1,))
        execute_operation(queue, ops["put"], (2,))
        assert execute_operation(queue, ops["poll"], ()) == 1
        assert execute_operation(queue, ops["poll"], ()) == 2
        assert execute_operation(queue, ops["poll"], ()) is None
        totals = execute_operation(queue, ops["totals"], ())
        assert totals == {"enqueued": 2, "dequeued": 2, "empty_polls": 1}

    def test_poll_never_blocks(self):
        # No guard: the op runs (and returns None) even on an empty queue.
        assert PollableQueue.operation_def("poll").guard is None

    def test_read_write_classification(self):
        assert PollableQueue.operation_def("put").is_write
        assert PollableQueue.operation_def("poll").is_write
        assert not PollableQueue.operation_def("size").is_write


class TestDefaultSpecs:
    def test_every_kind_has_a_usable_default_spec(self):
        for kind in ScenarioRegistry.names():
            spec = ScenarioRegistry.get(kind).default_spec()
            assert spec.total_ops_per_client > 0
            assert spec.num_keys >= 1

    def test_the_counter_kinds_are_one_family_whose_writes_commute(self):
        from repro.workloads.scenarios import Counters

        family = [kind for kind in ScenarioRegistry.names()
                  if issubclass(ScenarioRegistry.get(kind), Counters)]
        assert family == ["counter-farm", "diurnal-trace", "flash-crowd",
                          "hot-spot", "hotspot-shift",
                          "multi-tenant-noisy-neighbour", "primary-churn",
                          "rolling-restart", "scale-in"]
        commuting = [kind for kind in ScenarioRegistry.names()
                     if ScenarioRegistry.get(kind).writes_commute]
        assert commuting == family

    def test_hot_spot_uses_single_key(self):
        assert ScenarioRegistry.get("hot-spot").default_spec().num_keys == 1

    def test_hotspot_shift_rotates_the_hot_keys_per_phase(self):
        from repro.workloads import Request

        scenario_obj = ScenarioRegistry.create("hotspot-shift")
        spec = scenario_obj.spec
        assert spec.arrival_trace  # trace-driven by default
        stride = scenario_obj.stride
        assert stride % 4 != 0  # the rotation must change the id-hash shard
        key0 = scenario_obj._counter_for(Request(0, 0, True, phase=0))
        key1 = scenario_obj._counter_for(Request(1, 0, True, phase=1))
        key2 = scenario_obj._counter_for(Request(2, 0, True, phase=2))
        assert len({key0, key1, key2}) == 3
        # Consecutive phases put the hottest key on different id-hash shards.
        assert key0 % 4 != key1 % 4


class TestKVTableWrites:
    class _RecordingRts:
        def __init__(self):
            self.calls = []

        def invoke(self, proc, handle, op, args=(), kwargs=None):
            self.calls.append((op, args))

    def perform_write(self, spec, key):
        from repro.workloads import Request

        scenario_obj = ScenarioRegistry.create("kv-table", spec)
        scenario_obj.handles = [object()]  # skip setup; perform only invokes
        rts = self._RecordingRts()
        scenario_obj.perform(rts, None, Request(seq=7, key=key, is_write=True,
                                                phase=0))
        return rts.calls[0]

    def test_default_writes_the_sequence_number(self):
        op, args = self.perform_write(WorkloadSpec(), key=1)
        assert (op, args) == ("store", ("k1", 7))
