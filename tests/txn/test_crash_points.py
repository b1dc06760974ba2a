"""Crash at every event: the transaction layer's crash-point sweep.

:func:`crash_points` runs a freshly built cluster to its *i*-th event,
crashes the victims there, runs the cluster until its event queue drains and
checks the result, for every *i* from 0 (before the first event) to the
run's event count (a crash after the work has drained), ``stride`` apart.
The indices count the events of a ``max_events`` run, which is how each
point is reached: such a run turns off the simulator's fast-hold path, so a
run with a limit takes more events than one without.
The sweep can crash a node between two events of the same virtual instant,
which an in-run crasher (a process that holds, then crashes the node) cannot:
its own wake-up is one of those events.

A failing point is reported as a ``FOUND:`` line with the seed, the event
index and the virtual time of the crash, and the sweep goes on; it fails
once every point has run, never skipping one.

Tier-1 sweeps ``TestCoordinatorCrash``'s shape (5 nodes, 2 clients each,
node 4 the victim) at seed 11 every :data:`TIER1_STRIDE` events.  Run as a
script, this module sweeps the seeds it is given at every event::

    PYTHONPATH=src python tests/txn/test_crash_points.py 1 2 3 4 5
"""

from __future__ import annotations

import functools
import sys

from test_txn_crash_churn import VICTIM, assert_all_settled, build, mover, settle_and_check

#: Every 8th event of seed 11's 772 (97 points, about 2 s here): a stride
#: that keeps the tier-1 sweep under 3 s.
TIER1_STRIDE = 8

#: Far more events than any swept run takes: a counting run's limit.
EVENT_LIMIT = 10**9


def crash_points(build, check, victims, stride=1):
    """Sweep the crash points of the run ``build()`` sets up.

    ``build()`` returns a tuple whose first item is a
    :class:`~repro.amoeba.cluster.Cluster` with its clients spawned and not
    yet run; ``check(*built)`` judges the drained run.  At each point the
    nodes in ``victims`` crash together.  Returns the number of points swept;
    raises ``AssertionError`` listing every ``FOUND:`` point.
    """
    cluster = build()[0]
    try:
        start = cluster.sim.events_processed
        cluster.sim.run(max_events=EVENT_LIMIT)
        events = cluster.sim.events_processed - start
    finally:
        cluster.shutdown()
    points = range(0, events + 1, stride)
    found = []
    for point in points:
        built = build()
        cluster = built[0]
        at = cluster.sim.now
        try:
            cluster.sim.run(max_events=point)
            at = cluster.sim.now
            for victim in victims:
                cluster.node(victim).crash()
            cluster.run()
            check(*built)
        except Exception as exc:  # every point runs; all failures are reported
            line = (f"FOUND: seed {cluster.config.seed}: nodes {list(victims)} crashed "
                    f"after event {point} of {events}, at virtual time {at:.6f}: "
                    f"{type(exc).__name__}: {exc}")
            print(line)
            found.append(line)
        finally:
            cluster.shutdown()
    assert not found, "\n".join(found)
    return len(points)


def coordinators_everywhere(seed):
    """``TestCoordinatorCrash``'s shape: two movers on every node, the
    victim's included, so its orphaned transactions must resolve."""
    cluster, rts, handles = build(seed)
    for node in cluster.nodes:
        for client_id in range(2):
            node.kernel.spawn_thread(mover, cluster, rts, handles, node.node_id,
                                     client_id, seed, [])
    return cluster, rts, handles


def conserved_and_settled(cluster, rts, handles):
    settle_and_check(cluster, rts, handles)
    assert_all_settled(rts)


def sweep_coordinator_crash(seed, stride):
    return crash_points(functools.partial(coordinators_everywhere, seed),
                        conserved_and_settled, (VICTIM,), stride)


def test_a_coordinator_crash_at_every_eighth_event_of_seed_11():
    assert sweep_coordinator_crash(11, TIER1_STRIDE) > 90


if __name__ == "__main__":
    failed = False
    for seed in [int(arg) for arg in sys.argv[1:]] or [11]:
        try:
            print(f"seed {seed}: {sweep_coordinator_crash(seed, 1)} crash points, none failed")
        except AssertionError:  # its FOUND lines are printed; sweep the next seed
            failed = True
    sys.exit(1 if failed else 0)
