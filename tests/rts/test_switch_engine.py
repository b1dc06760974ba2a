"""The switch engine as a unit (:mod:`repro.rts.switch`).

Policy migration, seat relocation, crash takeover and shard moves are one
ordered record kind with one member-side apply, one admission gate and one
epoch classification.  The scenario suites exercise them end to end; these
tests pin the engine's own contract, table-driven.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.amoeba.broadcast.protocol import DeliveredMessage
from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation
from repro.rts.p2p.fanout import (
    CURRENT,
    FUTURE,
    LEG_ARRIVE,
    LEG_DRAIN,
    STALE,
    SwitchRecord,
)
from repro.rts.switch import (
    IN_FLIGHT,
    KIND_SWITCH,
    STABLE,
    _PendingWrite,
)
from repro.txn import TXN_KINDS
from repro.txn.locks import MODE_BARRIER, MODE_PREPARED

NUM_NODES = 4


class Register(ObjectSpec):
    def init(self, value=0):
        self.value = value

    @operation(write=False)
    def read(self):
        return self.value

    @operation(write=True)
    def add(self, delta):
        self.value += delta
        return self.value


def build(seed=5):
    """Four machines, two shards; ``b``/``b2`` broadcast-managed (one per
    shard), ``p``/``p2`` primary-update with their seats on node 0."""
    cluster = Cluster(ClusterConfig(num_nodes=NUM_NODES, seed=seed))
    rts = HybridRts(cluster, num_shards=2,
                    placement={"b": 0, "b2": 1, "p": 0, "p2": 1})
    handles = {}

    def setup():
        proc = cluster.sim.current_process
        for name in ("b", "b2"):
            handles[name] = rts.create_object(proc, Register, (0,), name=name)
        for name in ("p", "p2"):
            handles[name] = rts.create_object(proc, Register, (0,), name=name,
                                              policy="primary-update")

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()
    return cluster, rts, handles


def lifecycle(rts, obj_id):
    life = rts.switch.objects[obj_id]
    return (life.epoch, life.arrive_epoch, life.phase, life.frozen)


#: operation -> (the object it switches, the call).  Relocation targets node
#: 2, which is also the machine the catching-up cells crash and recover.
SWITCHES = {
    "migrate": ("b", lambda rts, proc, h: rts.migrate(
        proc, h["b"], "primary-update")),
    "move_shard": ("b", lambda rts, proc, h: rts.move_shard(
        proc, h["b"], 1 - rts.shard_of(h["b"]))),
    "relocate_primary": ("p", lambda rts, proc, h: rts.relocate_primary(
        proc, h["p"], target=2)),
}


# Each condition holds while its ``with`` block runs and is gone after it.


@contextmanager
def preparing(cluster, rts, handles, proc, subject):
    """Another initiator holds the gate (say, suspended in its freeze)."""
    with rts.switch.admit(subject.obj_id, initiator=3) as admitted:
        assert admitted
        yield


@contextmanager
def in_flight_unsettled(cluster, rts, handles, proc, subject):
    """A switch was committed and no member has delivered it yet."""
    rts.switch.advance(subject.obj_id)
    assert rts.switch.in_flight(subject.obj_id)
    yield
    for node in cluster.nodes:
        rts.switch.fast_forward(node.node_id, subject.obj_id)


@contextmanager
def catching_up(cluster, rts, handles, proc, subject):
    """Node 2 recovered and has not re-earned membership: ``migrate`` and
    ``move_shard`` pause cluster-wide, ``relocate_primary`` refuses it as a
    target."""
    cluster.node(2).crash()
    cluster.node(2).recover()
    assert not rts.is_caught_up(2)
    yield
    while not rts.is_caught_up(2):
        proc.hold(0.001)


@contextmanager
def txn_pinned(cluster, rts, handles, proc, subject):
    """A live transaction names the object (a cross-shard 2PC / two seats:
    several round trips, so the attempt made inside lands within it)."""
    partner = handles["b2"] if subject is handles["b"] else handles["p2"]
    done = []

    def transaction():
        tproc = cluster.sim.current_process
        rts.transact(tproc, [(subject, "add", (1,)), (partner, "add", (1,))])
        done.append(cluster.sim.now)

    cluster.node(3).kernel.spawn_thread(transaction)
    proc.hold(0.0001)
    assert not done
    yield
    assert not done, "the transaction ended before the attempt was made"
    while not done:
        proc.hold(0.001)


CONDITIONS = {
    "preparing": preparing,
    "in-flight-unsettled": in_flight_unsettled,
    "catching-up": catching_up,
    "txn-pinned": txn_pinned,
}


class TestAdmissionGate:
    @pytest.mark.parametrize("condition", sorted(CONDITIONS))
    @pytest.mark.parametrize("switch", sorted(SWITCHES))
    def test_refuses_cleanly(self, switch, condition):
        """Every planned switch refuses with ``False`` under every blocking
        condition, changes nothing about the object's lifecycle in doing
        so, and succeeds once the condition is gone."""
        cluster, rts, handles = build()
        name, call = SWITCHES[switch]
        subject = handles[name]
        seen = {}

        def body():
            proc = cluster.sim.current_process
            with CONDITIONS[condition](cluster, rts, handles, proc, subject):
                before = lifecycle(rts, subject.obj_id)
                seen["refused"] = call(rts, proc, handles)
                seen["untouched"] = lifecycle(rts, subject.obj_id) == before
            seen["stable"] = rts.switch.is_stable(subject.obj_id)
            seen["retried"] = call(rts, proc, handles)

        with cluster:
            cluster.node(1).kernel.spawn_thread(body)
            cluster.run()
            assert seen["refused"] is False
            assert seen["untouched"], "a refused switch left residue"
            assert seen["stable"]
            assert seen["retried"] is True
            assert rts.switch.is_stable(subject.obj_id)
            assert not rts.switch.objects[subject.obj_id].frozen

    def test_relocation_is_not_paused_by_a_catch_up_elsewhere(self):
        """The cluster-wide catch-up pause covers ``migrate`` and
        ``move_shard`` only: a seat may move between full members while a
        third machine rejoins."""
        cluster, rts, handles = build()
        seen = {}

        def body():
            proc = cluster.sim.current_process
            cluster.node(3).crash()
            cluster.node(3).recover()
            seen["caught_up"] = rts.is_caught_up(3)
            seen["moved"] = rts.relocate_primary(proc, handles["p"], target=2)

        with cluster:
            cluster.node(1).kernel.spawn_thread(body)
            cluster.run()
            assert seen == {"caught_up": False, "moved": True}
            assert rts.directory.primary_of(handles["p"].obj_id) == 2

    def test_gate_releases_when_the_switch_raises(self):
        cluster, rts, handles = build()
        obj_id = handles["b"].obj_id
        with cluster:
            with pytest.raises(RuntimeError):
                with rts.switch.admit(obj_id, initiator=0) as admitted:
                    assert admitted
                    rts.switch.objects[obj_id].frozen = True
                    raise RuntimeError("initiator failed")
            assert lifecycle(rts, obj_id) == (0, 0, STABLE, False)


def deliver(rts, node_id, shard, payload, origin=0):
    """Hand one sequenced record to one member, as its group would."""
    record = DeliveredMessage(seqno=99, origin=origin, uid=None,
                              payload=payload, size=16)
    rts._deliver_kinds[payload[0]](rts._shard_members[(node_id, shard)], record)


class TestEpochClassification:
    """One comparison decides a record's fate at a member, whatever carries
    it: a plain write, an entry of a batch, or a transaction's prepare."""

    MEMBER = 1
    DELIVERED = 2

    def effect_of(self, carrier, epoch):
        cluster, rts, handles = build()
        with cluster:
            obj_id = handles["b"].obj_id
            shard = rts.shard_of(handles["b"])

            def make_layer():  # the txn kinds join on the first transact()
                rts.transact(cluster.sim.current_process,
                             [(handles["b2"], "add", (0,))])

            cluster.node(0).kernel.spawn_thread(make_layer)
            cluster.run()
            rts.switch.seed_position(self.MEMBER, obj_id, self.DELIVERED, 0)
            assert rts.switch.classify(self.MEMBER, obj_id, epoch) == (
                (epoch > self.DELIVERED) - (epoch < self.DELIVERED))
            write = (obj_id, "add", (5,), {}, 7, epoch)
            payload = {
                "op": ("op",) + write,
                "batch": ("batch", [write]),
                "txn-prepare": ("txn-prepare", 41, obj_id, epoch,
                                ((0, "add", (5,), {}),), 7),
            }[carrier]
            deliver(rts, self.MEMBER, shard, payload)
            replica = rts.managers[self.MEMBER].get(obj_id)
            lock = rts._txn_layer.locks.get(self.MEMBER, obj_id)
            parked = rts.switch.take_future_writes(self.MEMBER, obj_id)
            if carrier == "txn-prepare":
                assert replica.instance.value == 0 and not parked
                return {None: STALE, MODE_PREPARED: CURRENT,
                        MODE_BARRIER: FUTURE}[lock and lock.mode]
            assert lock is None
            if parked:
                assert replica.instance.value == 0
                return FUTURE
            return CURRENT if replica.instance.value == 5 else STALE

    @pytest.mark.parametrize("epoch,verdict", [(1, STALE), (2, CURRENT),
                                               (3, FUTURE)])
    def test_same_verdict_whatever_carries_the_epoch(self, epoch, verdict):
        for carrier in ("op", "batch", "txn-prepare"):
            assert self.effect_of(carrier, epoch) == verdict, carrier


class _Initiator:
    """Stands in for the process awaiting its own switch broadcast."""

    def __init__(self):
        self.woken = 0

    def wake(self, result=None):
        self.woken += 1


class TestSupersededRecord:
    @pytest.mark.parametrize("leg", [LEG_DRAIN, LEG_ARRIVE])
    def test_overtaken_record_wakes_its_initiator_and_resettles(self, leg):
        """A record a later switch already overtook at this member (a
        takeover outrunning a relocation, a second move outrunning the
        first's arrival) regresses nothing, yet still wakes its initiator
        and re-checks settlement."""
        cluster, rts, handles = build()
        with cluster:
            obj_id = handles["b"].obj_id
            life = rts.switch.objects[obj_id]
            for _ in range(2):
                rts.switch.advance(obj_id, arrive=True)
            for node in cluster.nodes:
                rts.switch.fast_forward(node.node_id, obj_id)
            assert life.phase is IN_FLIGHT  # nobody has re-checked yet
            initiator = _Initiator()
            rts._pending[7] = _PendingWrite(proc=initiator)
            overtaken = SwitchRecord(
                obj_id, 1, "broadcast", -1,
                snapshot=(Register.create((99,), {}).marshal_state(), 50, None),
                leg=leg)
            deliver(rts, 0, rts.shard_of(handles["b"]),
                    (KIND_SWITCH, overtaken, 7))
            assert initiator.woken == 1
            assert life.phase is STABLE
            assert rts.switch.position(0, obj_id) == (2, 2)
            replica = rts.managers[0].get(obj_id)
            assert (replica.instance.value, replica.version) == (0, 0)


class TestOneSwitchPath:
    def test_one_kind_is_registered(self):
        cluster, rts, handles = build()
        with cluster:
            plain = {"op", "batch", "create", "rejoin"}
            assert set(rts._deliver_kinds) - plain == {KIND_SWITCH}

            def transact():
                rts.transact(cluster.sim.current_process,
                             [(handles["b"], "add", (1,))])

            cluster.node(0).kernel.spawn_thread(transact)
            cluster.run()
            assert (set(rts._deliver_kinds) - plain - set(TXN_KINDS)
                    == {KIND_SWITCH})

    def test_all_four_reconfigurations_ride_it(self):
        """Migration (both directions), relocation, takeover and both legs
        of a shard move reach the members as ``SwitchRecord``s of the one
        kind, through the one apply."""
        cluster, rts, handles = build()
        seen = []
        apply = rts._deliver_kinds[KIND_SWITCH]

        def recording(member, delivered):
            if member.node_id == 1:
                seen.append(delivered.payload[1])
            apply(member, delivered)

        rts._deliver_kinds[KIND_SWITCH] = recording

        def body():
            proc = cluster.sim.current_process
            assert rts.migrate(proc, handles["b"], "primary-update", primary=2)
            assert rts.migrate(proc, handles["b"], "broadcast")
            assert rts.move_shard(proc, handles["b"], 1)
            assert rts.relocate_primary(proc, handles["p"], target=3)
            cluster.node(3).crash()  # p's seat: a survivor takes it over
            rts.invoke(proc, handles["p"], "add", (1,))

        with cluster:
            cluster.node(1).kernel.spawn_thread(body)
            cluster.run()
            assert all(isinstance(record, SwitchRecord) for record in seen)
            b, p = handles["b"].obj_id, handles["p"].obj_id
            shape = [(r.obj_id, r.epoch, r.policy, r.primary,
                      r.snapshot is not None, r.scope is not None, r.leg)
                     for r in seen]
            takeover = rts.recoveries[0].new_primary
            assert shape == [
                (b, 1, "primary-update", 2, False, False, LEG_DRAIN),
                (b, 2, "broadcast", -1, True, False, LEG_DRAIN),
                (b, 3, "broadcast", -1, False, False, LEG_DRAIN),
                (b, 3, "broadcast", -1, False, False, LEG_ARRIVE),
                (p, 1, "primary-update", 3, True, True, LEG_DRAIN),
                (p, 2, "primary-update", takeover, True, True, LEG_DRAIN),
            ]
            assert rts.managers[takeover].get(p).instance.value == 1
