"""Unit tests for the management-policy spectrum and its coercion helpers."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.rts.policy import (
    FIXED_POLICIES,
    AdaptiveParams,
    AdaptivePolicy,
    BroadcastReplicated,
    PrimaryCopyInvalidate,
    PrimaryCopyUpdate,
    management_policy,
)
from repro.rts.stats import AccessStats


class TestFixedPolicies:
    def test_spectrum_points_and_mechanisms(self):
        assert FIXED_POLICIES["broadcast"].mechanism == "broadcast"
        assert FIXED_POLICIES["primary-invalidate"].mechanism == "primary"
        assert FIXED_POLICIES["primary-update"].mechanism == "primary"
        assert FIXED_POLICIES["primary-invalidate"].protocol == "invalidation"
        assert FIXED_POLICIES["primary-update"].protocol == "update"
        assert FIXED_POLICIES["broadcast"].protocol is None

    def test_coercion_from_names_and_instances(self):
        assert management_policy("broadcast") is FIXED_POLICIES["broadcast"]
        assert management_policy("primary-update") is FIXED_POLICIES["primary-update"]
        concrete = PrimaryCopyInvalidate()
        assert management_policy(concrete) is concrete
        default = BroadcastReplicated()
        assert management_policy(None, default=default) is default

    def test_coercion_of_adaptive_forms(self):
        assert isinstance(management_policy("adaptive"), AdaptivePolicy)
        params = AdaptiveParams(min_accesses=5)
        from_params = management_policy(params)
        assert isinstance(from_params, AdaptivePolicy)
        assert from_params.params.min_accesses == 5
        from_mapping = management_policy({"check_interval": 2})
        assert from_mapping.params.check_interval == 2

    def test_rejects_unknown_spellings(self):
        with pytest.raises(ConfigurationError):
            management_policy("quantum")
        with pytest.raises(ConfigurationError):
            management_policy(3.14)
        with pytest.raises(ConfigurationError):
            management_policy(None)  # no default given

    def test_an_unknown_adaptive_field_names_itself(self):
        with pytest.raises(ConfigurationError) as info:
            management_policy({"min_acesses": 3})
        assert "'min_acesses'" in str(info.value)
        assert "'min_accesses'" in str(info.value)

    @pytest.mark.parametrize("removed", [
        "rebalance_shards", "shard_imbalance", "min_shard_writes",
        "broadcast_ratio", "primary_ratio", "decay", "primary_policy"])
    def test_a_removed_shard_lever_option_is_refused_by_name(self, removed):
        with pytest.raises(ConfigurationError, match=f"'{removed}'"):
            management_policy({removed: True})


class TestAdaptiveParamsValidation:
    def test_counter_bounds(self):
        with pytest.raises(ConfigurationError):
            AdaptiveParams(min_accesses=0)
        with pytest.raises(ConfigurationError):
            AdaptiveParams(check_interval=0)


class TestAdaptiveDecisions:
    def make(self, **kwargs):
        return AdaptivePolicy(AdaptiveParams(min_accesses=10, **kwargs))

    def window(self, reads, writes):
        stats = AccessStats()
        for _ in range(reads):
            stats.note_read()
        for _ in range(writes):
            stats.note_write()
        return stats

    def test_no_decision_before_min_accesses(self):
        controller = self.make()
        assert controller.desired(self.window(5, 1), "broadcast") is None

    def test_write_heavy_object_moves_to_primary(self):
        controller = self.make()
        assert (controller.desired(self.window(2, 20), "broadcast")
                == "primary-invalidate")

    def test_read_mostly_object_moves_to_broadcast(self):
        controller = self.make()
        assert (controller.desired(self.window(30, 2), "primary-invalidate")
                == "broadcast")

    def test_hysteresis_gap_keeps_object_in_place(self):
        controller = self.make()
        between = self.window(20, 10)  # ratio 2.0: inside the gap
        assert controller.desired(between, "broadcast") is None
        assert controller.desired(between, "primary-invalidate") is None

    def test_no_move_to_the_policy_already_running(self):
        controller = self.make()
        assert controller.desired(self.window(30, 1), "broadcast") is None
        assert (controller.desired(self.window(0, 30), "primary-invalidate")
                is None)

    def test_due_follows_check_interval(self):
        controller = AdaptivePolicy(AdaptiveParams(check_interval=4))
        stats = AccessStats()
        due = []
        for i in range(1, 9):
            stats.note_read()
            due.append(controller.due(stats))
        assert due == [False, False, False, True, False, False, False, True]

    def test_migrate_rejects_adaptive_target(self):
        # migrate() moves objects between fixed policies; adaptive control is
        # attached at creation time.
        from repro.amoeba.cluster import Cluster
        from repro.config import ClusterConfig
        from repro.orca.builtin_objects import IntObject
        from repro.rts.hybrid import HybridRts

        with Cluster(ClusterConfig(num_nodes=2, seed=1)) as cluster:
            rts = HybridRts(cluster)
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["c"] = rts.create_object(proc, IntObject, (0,))
                with pytest.raises(ConfigurationError):
                    rts.migrate(proc, handles["c"], "adaptive")

            cluster.node(0).kernel.spawn_thread(main)
            cluster.run()
            assert "c" in handles
