"""Unit tests for the gateway building blocks (no cluster needed)."""

from __future__ import annotations

import pytest

from repro.config import params_from
from repro.errors import ConfigurationError
from repro.gateway import FairQueue, GatewayParams, TokenBucket
from repro.gateway.gateway import TenantState, _QueueEntry
from repro.workloads import Request, TenantSpec


def entry_for(tenant: TenantState, seq: int = 0) -> _QueueEntry:
    request = Request(seq=seq, key=0, is_write=False, phase=0)
    return _QueueEntry(arrival=0.0, request=request, session=None, tenant=tenant)


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst exhausted
        assert bucket.try_take(0.1)  # 0.1 s * 10/s = 1 token back
        assert not bucket.try_take(0.1)

    def test_burst_caps_accumulation(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        bucket.try_take(0.0)
        # A long idle period banks at most ``burst`` tokens.
        for _ in range(3):
            assert bucket.try_take(100.0)
        assert not bucket.try_take(100.0)

    def test_burst_defaults_to_one_second_of_tokens(self):
        assert TokenBucket(rate=25.0, burst=None).burst == 25.0


class TestFairQueue:
    def test_fifo_within_one_tenant(self):
        tenant = TenantState(TenantSpec(name="a"))
        queue = FairQueue()
        first, second = entry_for(tenant, 1), entry_for(tenant, 2)
        queue.push(first)
        queue.push(second)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_weights_split_service_proportionally(self):
        heavy = TenantState(TenantSpec(name="heavy", weight=2.0))
        light = TenantState(TenantSpec(name="light", weight=1.0))
        queue = FairQueue()
        for seq in range(4):
            queue.push(entry_for(heavy, seq))
            queue.push(entry_for(light, 100 + seq))
        # In any window of 3 dequeues the 2:1 weights give heavy 2 slots.
        order = [queue.pop().tenant.name for _ in range(6)]
        assert order.count("heavy") == 4
        assert order[:3].count("heavy") == 2

    def test_evicts_lowest_priority_latest_entry(self):
        high = TenantState(TenantSpec(name="high", priority=2))
        low = TenantState(TenantSpec(name="low", priority=0))
        queue = FairQueue()
        keep = entry_for(low, 1)
        victim = entry_for(low, 2)
        queue.push(keep)
        queue.push(victim)
        queue.push(entry_for(high, 3))
        assert queue.evict_lower_priority(2) is victim
        assert len(queue) == 2
        # Nothing below priority 0 exists: nothing to evict.
        assert queue.evict_lower_priority(0) is None


class TestParams:
    def test_coercions(self):
        assert params_from(GatewayParams, None) is None
        assert params_from(GatewayParams, False) is None
        assert params_from(GatewayParams, True) == GatewayParams()
        assert params_from(GatewayParams, {"workers": 2, "shed_depth": 3}) == GatewayParams(
            workers=2, shed_depth=3)
        params = GatewayParams(accept_queue=None)
        assert params_from(GatewayParams, params) is params

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GatewayParams(workers=0)
        with pytest.raises(ConfigurationError):
            GatewayParams(accept_queue=0)
        with pytest.raises(ConfigurationError):
            GatewayParams(shed_depth=0)
        with pytest.raises(ConfigurationError):
            params_from(GatewayParams, "yes")


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TenantSpec(name="")
        with pytest.raises(ConfigurationError):
            TenantSpec(name="t", sessions=0)
        with pytest.raises(ConfigurationError):
            TenantSpec(name="t", weight=0.0)
        with pytest.raises(ConfigurationError):
            TenantSpec(name="t", rate=-1.0)
        with pytest.raises(ConfigurationError):
            TenantSpec(name="t", burst=8.0)  # burst without rate
        with pytest.raises(ConfigurationError):
            TenantSpec(name="t", arrival_rate=0.0)

    def test_duplicate_tenant_names_rejected(self):
        from repro.workloads import WorkloadSpec

        with pytest.raises(ConfigurationError):
            WorkloadSpec(tenants=(TenantSpec(name="t"), TenantSpec(name="t")))
