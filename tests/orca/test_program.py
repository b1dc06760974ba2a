"""Tests for the Orca programming layer: processes, fork, programs, proxies."""

from __future__ import annotations

import pytest

from repro.config import ClusterConfig
from repro.errors import OrcaError, UnknownOperationError
from repro.orca import ObjectSpec, OrcaProgram, operation
from repro.orca.builtin_objects import IntObject, JobQueue


class TestOrcaProgramBasics:
    def test_main_return_value(self):
        def main(proc):
            return "hello orca"

        result = OrcaProgram(main, ClusterConfig(num_nodes=2, seed=1)).run()
        assert result.value == "hello orca"
        assert result.num_nodes == 2
        assert result.rts_name == "broadcast-rts"

    def test_main_receives_arguments(self):
        def main(proc, a, b=0):
            return a + b

        result = OrcaProgram(main, ClusterConfig(num_nodes=1, seed=1)).run(4, b=5)
        assert result.value == 9

    def test_compute_advances_virtual_time(self):
        def main(proc):
            proc.compute(10_000)
            return proc.num_nodes

        result = OrcaProgram(main, ClusterConfig(num_nodes=3, seed=1)).run()
        assert result.value == 3
        assert result.elapsed >= 10_000 * 2.0e-5

    def test_unknown_rts_rejected(self):
        with pytest.raises(Exception):
            OrcaProgram(lambda proc: None, rts="quantum")

    def test_result_contains_network_and_rts_summaries(self):
        def main(proc):
            counter = proc.new_object(IntObject, 0)
            counter.add(1)
            return counter.read()

        result = OrcaProgram(main, ClusterConfig(num_nodes=3, seed=1)).run()
        assert result.value == 1
        assert result.network["messages"] > 0
        assert result.rts["broadcast_writes"] >= 1


class TestForkAndJoin:
    def test_fork_on_every_node(self):
        def worker(proc, counter, worker_id):
            counter.add(1)
            return (worker_id, proc.node_id)

        def main(proc):
            counter = proc.new_object(IntObject, 0)
            workers = proc.fork_workers(worker, counter)
            placements = proc.join_all(workers)
            return counter.read(), placements

        result = OrcaProgram(main, ClusterConfig(num_nodes=4, seed=2)).run()
        total, placements = result.value
        assert total == 4
        assert sorted(node for _, node in placements) == [0, 1, 2, 3]

    def test_fork_default_node_is_parent_node(self):
        def child(proc):
            return proc.node_id

        def main(proc):
            return proc.join(proc.fork(child))

        result = OrcaProgram(main, ClusterConfig(num_nodes=4, seed=1)).run()
        assert result.value == 0

    def test_fork_out_of_range_node_rejected(self):
        def child(proc):
            return None

        def main(proc):
            proc.fork(child, on_node=17)

        with pytest.raises(Exception):
            OrcaProgram(main, ClusterConfig(num_nodes=2, seed=1)).run()

    def test_remote_fork_starts_later_than_local(self):
        def child(proc):
            return proc.now

        def main(proc):
            local = proc.fork(child, on_node=0)
            remote = proc.fork(child, on_node=1)
            return proc.join(local), proc.join(remote)

        result = OrcaProgram(main, ClusterConfig(num_nodes=2, seed=1)).run()
        local_start, remote_start = result.value
        assert remote_start > local_start

    def test_objects_are_shared_by_reference(self):
        class Accumulator(ObjectSpec):
            def init(self):
                self.items = []

            @operation(write=True)
            def append(self, item):
                self.items.append(item)
                return len(self.items)

            @operation(write=False)
            def snapshot(self):
                return list(self.items)

        def worker(proc, acc, worker_id):
            acc.append(worker_id)

        def main(proc):
            acc = proc.new_object(Accumulator)
            proc.join_all(proc.fork_workers(worker, acc))
            return sorted(acc.snapshot())

        result = OrcaProgram(main, ClusterConfig(num_nodes=3, seed=5)).run()
        assert result.value == [0, 1, 2]


class TestBoundObjectProxy:
    def test_unknown_operation_raises(self):
        def main(proc):
            counter = proc.new_object(IntObject, 0)
            with pytest.raises(UnknownOperationError):
                counter.frobnicate()
            return True

        assert OrcaProgram(main, ClusterConfig(num_nodes=1, seed=1)).run().value

    def test_operations_listing(self):
        def main(proc):
            counter = proc.new_object(IntObject, 0)
            return counter.operations()

        ops = OrcaProgram(main, ClusterConfig(num_nodes=1, seed=1)).run().value
        assert "read" in ops and "min_update" in ops

    def test_invoke_by_name(self):
        def main(proc):
            counter = proc.new_object(IntObject, 10)
            counter.invoke("add", 5)
            return counter.invoke("read")

        assert OrcaProgram(main, ClusterConfig(num_nodes=2, seed=1)).run().value == 15

    def test_usage_outside_simulation_rejected(self):
        captured = {}

        def main(proc):
            captured["obj"] = proc.new_object(IntObject, 0)
            return None

        OrcaProgram(main, ClusterConfig(num_nodes=1, seed=1)).run(keep_cluster=True)
        with pytest.raises(OrcaError):
            captured["obj"].read()


class TestBuiltinObjects:
    def test_int_object_min_update(self):
        def main(proc):
            bound = proc.new_object(IntObject, 100)
            first = bound.min_update(40)
            second = bound.min_update(70)
            return first, second, bound.read()

        result = OrcaProgram(main, ClusterConfig(num_nodes=2, seed=1)).run()
        assert result.value == (True, False, 40)

    def test_job_queue_workers_drain_all_jobs(self):
        def worker(proc, queue, results, worker_id):
            while True:
                job = queue.get_job()
                if job is None:
                    return
                proc.compute(100)
                results.add(job)

        def main(proc):
            from repro.orca.builtin_objects import SetObject

            queue = proc.new_object(JobQueue)
            results = proc.new_object(SetObject)
            for i in range(20):
                queue.add_job(i)
            workers = proc.fork_workers(worker, queue, results)
            queue.no_more_jobs()
            proc.join_all(workers)
            return results.size(), queue.size()

        result = OrcaProgram(main, ClusterConfig(num_nodes=4, seed=3)).run()
        assert result.value == (20, 0)

    def test_barrier_object(self):
        from repro.orca.builtin_objects import BarrierObject

        def worker(proc, barrier, log, worker_id):
            proc.compute((worker_id + 1) * 1000)
            generation = barrier.arrive()
            barrier.await_generation(generation)
            log.add(worker_id)
            return proc.now

        def main(proc):
            from repro.orca.builtin_objects import SetObject

            barrier = proc.new_object(BarrierObject, 3)
            log = proc.new_object(SetObject)
            workers = proc.fork_workers(worker, barrier, log, count=3)
            times = proc.join_all(workers)
            return log.size(), times

        result = OrcaProgram(main, ClusterConfig(num_nodes=3, seed=4)).run()
        size, times = result.value
        assert size == 3
        # No worker can pass the barrier before the slowest has arrived.
        assert max(times) - min(times) < max(times) * 0.5

    def test_dict_object_capacity(self):
        from repro.orca.builtin_objects import DictObject

        def main(proc):
            table = proc.new_object(DictObject, 2)
            stored = [table.store(k, v) for k, v in (("a", 10), ("b", 20), ("c", 30))]
            return stored, table.lookup("a"), table.lookup("c"), table.size()

        result = OrcaProgram(main, ClusterConfig(num_nodes=1, seed=1)).run()
        stored, a, c, size = result.value
        assert stored == [True, True, False]
        assert a == 10 and c is None and size == 2


class TestP2pProgramIntegration:
    def test_same_program_runs_on_p2p_rts(self):
        def worker(proc, counter, worker_id):
            for _ in range(5):
                counter.add(1)
                proc.compute(50)

        def main(proc):
            counter = proc.new_object(IntObject, 0)
            proc.join_all(proc.fork_workers(worker, counter))
            return counter.read()

        broadcast = OrcaProgram(main, ClusterConfig(num_nodes=4, seed=6),
                                rts="broadcast").run()
        p2p_update = OrcaProgram(main, ClusterConfig(num_nodes=4, seed=6),
                                 rts="p2p", rts_options={"protocol": "update"}).run()
        p2p_inval = OrcaProgram(main, ClusterConfig(num_nodes=4, seed=6),
                                rts="p2p", rts_options={"protocol": "invalidation"}).run()
        assert broadcast.value == p2p_update.value == p2p_inval.value == 20
