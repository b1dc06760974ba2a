"""Tests for workload specifications: distributions, mixes, phases."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.workloads import (
    KeySampler,
    PhaseSpec,
    WorkloadSpec,
    bursty,
    request_stream,
    trace_arrivals,
    traced_request_stream,
)


def observed_mix(requests):
    """Fraction of reads in a generated request sequence."""
    if not requests:
        return 0.0
    return sum(1 for request in requests if not request.is_write) / len(requests)


class TestValidation:
    def test_rejects_unknown_popularity(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(popularity="parabolic")

    def test_rejects_unknown_client_model(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(client_model="half-open")

    def test_rejects_bad_read_fraction(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(read_fraction=1.5)

    def test_rejects_open_loop_without_rate(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(client_model="open", arrival_rate=0.0)


class TestKeySampler:
    def test_uniform_covers_key_space(self):
        spec = WorkloadSpec(num_keys=8)
        sampler = KeySampler(spec)
        rng = random.Random(1)
        seen = {sampler.sample(rng) for _ in range(2000)}
        assert seen == set(range(8))

    def test_zipfian_skews_toward_low_ranks(self):
        spec = WorkloadSpec(num_keys=32, popularity="zipfian", zipf_s=1.3)
        sampler = KeySampler(spec)
        rng = random.Random(2)
        counts = [0] * 32
        for _ in range(5000)        :
            counts[sampler.sample(rng)] += 1
        # The hottest key dominates and the head outweighs the tail.
        assert counts[0] == max(counts)
        assert sum(counts[:4]) > sum(counts[16:])

    def test_zipfian_more_skewed_than_uniform(self):
        rng_u, rng_z = random.Random(3), random.Random(3)
        uniform = KeySampler(WorkloadSpec(num_keys=16))
        zipf = KeySampler(WorkloadSpec(num_keys=16, popularity="zipfian", zipf_s=1.2))
        top_u = sum(1 for _ in range(3000) if uniform.sample(rng_u) == 0)
        top_z = sum(1 for _ in range(3000) if zipf.sample(rng_z) == 0)
        assert top_z > 2 * top_u


class TestRequestStream:
    def test_deterministic_for_equal_seeds(self):
        spec = WorkloadSpec(num_keys=8, read_fraction=0.7, ops_per_client=40)
        first = list(request_stream(spec, random.Random(9)))
        second = list(request_stream(spec, random.Random(9)))
        assert first == second

    def test_respects_read_fraction_roughly(self):
        spec = WorkloadSpec(num_keys=4, read_fraction=0.8, ops_per_client=1000)
        requests = list(request_stream(spec, random.Random(4)))
        assert 0.75 < observed_mix(requests) < 0.85

    def test_all_reads_and_all_writes(self):
        all_reads = WorkloadSpec(read_fraction=1.0, ops_per_client=50)
        assert observed_mix(list(request_stream(all_reads, random.Random(1)))) == 1.0
        all_writes = WorkloadSpec(read_fraction=0.0, ops_per_client=50)
        assert observed_mix(list(request_stream(all_writes, random.Random(1)))) == 0.0

    def test_sequence_numbers_are_consecutive(self):
        spec = WorkloadSpec(ops_per_client=25)
        requests = list(request_stream(spec, random.Random(5)))
        assert [request.seq for request in requests] == list(range(25))


class TestPhases:
    def test_single_phase_from_top_level_fields(self):
        spec = WorkloadSpec(ops_per_client=30, read_fraction=0.6, think_time=0.01)
        phases = spec.resolved_phases()
        assert len(phases) == 1
        assert phases[0].ops_per_client == 30
        assert phases[0].read_fraction == 0.6
        assert phases[0].think_time == 0.01

    def test_phase_fields_inherit_from_workload(self):
        spec = WorkloadSpec(read_fraction=0.9, think_time=0.002, phases=(
            PhaseSpec(ops_per_client=10),
            PhaseSpec(ops_per_client=5, read_fraction=0.1),
        ))
        first, second = spec.resolved_phases()
        assert first.read_fraction == 0.9
        assert first.think_time == 0.002
        assert second.read_fraction == 0.1
        assert spec.total_ops_per_client == 15

    def test_requests_tagged_with_their_phase(self):
        spec = WorkloadSpec(phases=(PhaseSpec(ops_per_client=4),
                                    PhaseSpec(ops_per_client=3)))
        requests = list(request_stream(spec, random.Random(6)))
        assert [request.phase for request in requests] == [0] * 4 + [1] * 3

    def test_bursty_builder_alternates_rates(self):
        spec = bursty("b", ops_per_phase=10, base_rate=100.0, burst_rate=900.0,
                      bursts=2)
        rates = [phase.arrival_rate for phase in spec.resolved_phases()]
        assert rates == [100.0, 900.0, 100.0, 900.0]
        assert spec.client_model == "open"

    def test_with_overrides_returns_modified_copy(self):
        spec = WorkloadSpec(num_keys=8)
        other = spec.with_overrides(num_keys=64)
        assert other.num_keys == 64
        assert spec.num_keys == 8


class TestArrivalTrace:
    def make_spec(self, trace=((0.05, 400.0), (0.05, 1200.0))):
        return WorkloadSpec(name="traced", client_model="open",
                            arrival_trace=tuple(trace))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(client_model="closed", arrival_trace=((0.1, 100.0),))
        with pytest.raises(ConfigurationError):
            WorkloadSpec(client_model="open", arrival_trace=((0.1, -5.0),))
        with pytest.raises(ConfigurationError):
            WorkloadSpec(client_model="open", arrival_trace=((0.0, 100.0),))
        with pytest.raises(ConfigurationError):
            WorkloadSpec(client_model="open", arrival_trace=((0.1,),))
        with pytest.raises(ConfigurationError):
            WorkloadSpec(client_model="open", arrival_trace=((0.1, 100.0),),
                         phases=(PhaseSpec(ops_per_client=5),))

    def test_arrivals_are_deterministic_and_ordered(self):
        trace = ((0.05, 400.0), (0.05, 1200.0))
        first = list(trace_arrivals(trace, random.Random(7)))
        second = list(trace_arrivals(trace, random.Random(7)))
        assert first == second and first
        times = [t for t, _ in first]
        assert times == sorted(times)
        assert all(0.0 < t < 0.1 for t in times)

    def test_segment_rates_shape_the_arrival_counts(self):
        trace = ((0.5, 200.0), (0.5, 1000.0))
        arrivals = list(trace_arrivals(trace, random.Random(11)))
        slow = sum(1 for _, seg in arrivals if seg == 0)
        fast = sum(1 for _, seg in arrivals if seg == 1)
        # ~100 vs ~500 expected; demand a clear gap, not exact counts.
        assert fast > 3 * slow
        # Segment tags match the arrival times.
        for t, seg in arrivals:
            assert (t >= 0.5) == (seg == 1)

    def test_traced_request_stream_tags_phase_and_respects_mix(self):
        spec = self.make_spec().with_overrides(read_fraction=0.0)
        stream = list(traced_request_stream(spec, random.Random(3)))
        assert stream
        seqs = [request.seq for request, _ in stream]
        assert seqs == list(range(len(stream)))
        for request, arrival in stream:
            assert request.is_write
            assert request.phase in (0, 1)
            assert (arrival >= 0.05) == (request.phase == 1)

    def test_traced_stream_is_deterministic(self):
        spec = self.make_spec()
        a = list(traced_request_stream(spec, random.Random(9)))
        b = list(traced_request_stream(spec, random.Random(9)))
        assert a == b
