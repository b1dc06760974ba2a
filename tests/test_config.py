"""Tests for the configuration dataclasses."""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from repro.config import (
    BroadcastParams,
    ClusterConfig,
    CostModel,
    CpuParams,
    NetworkParams,
    ReplicationParams,
    params_from,
)
from repro.errors import ConfigurationError
from repro.gateway.params import GatewayParams
from repro.rts.sharding import BatchingParams, RebalanceParams
from repro.workloads.spec import WorkloadSpec

REPO = Path(__file__).resolve().parents[1]


class TestNetworkParams:
    def test_defaults_match_paper_testbed(self):
        params = NetworkParams()
        assert params.bandwidth_bps == 10_000_000.0
        assert params.supports_broadcast

    def test_transmit_time_scales_with_size(self):
        params = NetworkParams(bandwidth_bps=10_000_000.0, packet_overhead_bytes=0)
        assert params.transmit_time(1250) == pytest.approx(0.001)  # 10 kbit at 10 Mb/s

    def test_packets_for(self):
        params = NetworkParams(packet_size=1500)
        assert params.packets_for(0) == 1
        assert params.packets_for(1) == 1
        assert params.packets_for(1500) == 1
        assert params.packets_for(1501) == 2
        assert params.packets_for(4500) == 3

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkParams(bandwidth_bps=0)
        with pytest.raises(ConfigurationError):
            NetworkParams(latency=-1)
        with pytest.raises(ConfigurationError):
            NetworkParams(loss_rate=1.5)


class TestCpuParams:
    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuParams(work_unit_time=-1.0)


class TestBroadcastParams:
    def test_method_validation(self):
        with pytest.raises(ConfigurationError):
            BroadcastParams(method="xyz")
        assert BroadcastParams(method="pb").method == "pb"

    def test_pb_max_packets_validation(self):
        with pytest.raises(ConfigurationError):
            BroadcastParams(pb_max_packets=0)


class TestReplicationParams:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            ReplicationParams(replicate_threshold=1.0, drop_threshold=2.0)

    def test_defaults_have_hysteresis(self):
        params = ReplicationParams()
        assert params.replicate_threshold > params.drop_threshold


class TestCostModel:
    def test_with_overrides(self):
        model = CostModel()
        updated = model.with_overrides(network={"bandwidth_bps": 1e8},
                                       cpu={"work_unit_time": 1e-6})
        assert updated.network.bandwidth_bps == 1e8
        assert updated.cpu.work_unit_time == 1e-6
        # The original is unchanged (frozen dataclasses).
        assert model.network.bandwidth_bps == 1e7

    def test_with_overrides_unknown_section(self):
        with pytest.raises(ConfigurationError):
            CostModel().with_overrides(gpu={"x": 1})

    def test_with_overrides_names_an_unknown_field(self):
        with pytest.raises(ConfigurationError) as info:
            CostModel().with_overrides(network={"bandwith_bps": 1})
        assert "'bandwith_bps'" in str(info.value)
        assert "'bandwidth_bps'" in str(info.value)

    def test_with_overrides_keeps_the_sections_other_fields(self):
        model = CostModel().with_overrides(network={"latency": 1e-3})
        updated = model.with_overrides(network={"bandwidth_bps": 1e8})
        assert updated.network.latency == 1e-3
        assert updated.network.bandwidth_bps == 1e8


class TestClusterConfig:
    def test_with_nodes_and_seed(self):
        config = ClusterConfig(num_nodes=4, seed=1)
        assert config.with_nodes(8).num_nodes == 8
        assert config.with_seed(9).seed == 9
        # Original untouched.
        assert config.num_nodes == 4

    def test_invalid_node_count(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_nodes=0)


@pytest.mark.parametrize("params_class,typo,field_name", [
    (BatchingParams, "max_batches", "max_batch"),
    (GatewayParams, "worker", "workers"),
])
def test_params_from_names_an_unknown_field(params_class, typo, field_name):
    with pytest.raises(ConfigurationError) as info:
        params_from(params_class, {typo: 2})
    assert f"'{typo}'" in str(info.value)
    assert f"'{field_name}'" in str(info.value)


def _names_set_in(path: Path):
    """Every keyword-argument name and string dict key in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(key.value for key in node.keys
                         if isinstance(key, ast.Constant)
                         and isinstance(key.value, str))
    return names


@pytest.mark.parametrize("params_class", [
    RebalanceParams, BatchingParams, GatewayParams, WorkloadSpec])
def test_every_settable_field_has_a_setter_outside_its_module(params_class):
    """An option that only the tests set is a constant in disguise: each
    field must be passed by keyword or named as a dict key somewhere in the
    library, the benchmarks or the examples, outside the module that
    defines it."""
    home = Path(inspect.getsourcefile(params_class)).resolve()
    names = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((REPO / top).rglob("*.py")):
            if path.resolve() != home:
                names |= _names_set_in(path)
    unset = [f.name for f in dataclasses.fields(params_class)
             if f.name not in names]
    assert unset == [], (
        f"{params_class.__name__} fields set nowhere outside "
        f"{home.name}: {unset}")
