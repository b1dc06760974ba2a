"""TRANSACTIONS — cost and resilience of cross-object atomic commits.

PR 8 added ``rts.transact``: a group of operations on multiple shared
objects commits all-or-nothing, either as one ordered broadcast record
(every participant on the same shard) or through an ordered 2PC whose
prepares and decide ride the participants' shard orders.  Four cells
measure what that buys and what it costs:

* **same-shard** — transfer latency and throughput when the group
  commits as a single ordered record (atomicity is free: one broadcast);
* **cross-shard** — the same transfers split across two shard orders,
  paying the full prepare/decide round-trips;
* **contention** — many clients hammering two hot accounts with guarded
  withdrawals: the abort rate, conflict retries and deferred writes under
  pressure, with the balance sheet conserved throughout;
* **crash** — a participant-primary machine dies mid-traffic: committed
  transfers stay exactly-once, orphans resolve by presumed-abort
  recovery, and the cell reports the post-crash commit throughput.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import TransactionAborted
from repro.metrics.report import format_table
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation

try:
    from conftest import run_once
except ImportError:  # pragma: no cover - imported via pins.py, where conftest is tests/'s
    run_once = None

NUM_NODES = 5
SEED = 42
INITIAL = 1_000
ROUNDS = 30
CRASH_AT = 0.02


class Account(ObjectSpec):
    def init(self, balance=0):
        self.balance = balance

    @operation(write=False)
    def read(self):
        return self.balance

    @operation(write=True, guard=lambda self, amount: self.balance >= amount)
    def withdraw(self, amount):
        self.balance -= amount
        return self.balance

    @operation(write=True)
    def deposit(self, amount):
        self.balance += amount
        return self.balance


def _build(seed, num_accounts, num_shards, policies=("broadcast",),
           num_nodes=NUM_NODES, initial=INITIAL):
    cluster = Cluster(ClusterConfig(num_nodes=num_nodes, seed=seed))
    rts = HybridRts(cluster, default_policy="broadcast", num_shards=num_shards)
    handles = []

    def setup():
        proc = cluster.sim.current_process
        for i in range(num_accounts):
            handles.append(rts.create_object(
                proc, Account, (initial,), name=f"acct{i}",
                policy=policies[i % len(policies)]))

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()
    return cluster, rts, handles


def _percentile(sorted_values, q):
    if not sorted_values:
        return None
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return round(sorted_values[index], 9)


def _settle(cluster, rts, handles):
    """Total balance at a quiescent point (read from a live node)."""
    balances = []

    def reader():
        proc = cluster.sim.current_process
        for handle in handles:
            balances.append(rts.invoke(proc, handle, "read"))

    host = next(n.node_id for n in cluster.nodes if n.alive)
    cluster.node(host).kernel.spawn_thread(reader)
    cluster.run()
    return sum(balances)


# ---------------------------------------------------------------------- #
# Cells
# ---------------------------------------------------------------------- #


def run_commit_cost_cell(same_shard, seed=SEED, num_nodes=NUM_NODES,
                         rounds=ROUNDS):
    """Transfer latency/throughput on one commit path.

    ``same_shard=True`` pins both accounts into the single shard (the
    one-record fast path); ``same_shard=False`` splits them across two
    shard orders (full ordered 2PC).
    """
    num_shards = 1 if same_shard else 2
    cluster, rts, handles = _build(seed, num_accounts=2, num_shards=num_shards, num_nodes=num_nodes)
    if not same_shard:
        assert rts.shard_of(handles[0]) != rts.shard_of(handles[1])
    latencies = []
    started = cluster.sim.now

    def mover(src, dst):
        proc = cluster.sim.current_process
        for _ in range(rounds):
            t0 = proc.local_time
            rts.transact(proc, [(handles[src], "withdraw", (5,)),
                                (handles[dst], "deposit", (5,))])
            latencies.append(proc.local_time - t0)

    cluster.node(1).kernel.spawn_thread(mover, 0, 1)
    cluster.node(2).kernel.spawn_thread(mover, 1, 0)
    cluster.run()
    elapsed = cluster.sim.now - started
    conserved = _settle(cluster, rts, handles) == 2 * INITIAL
    latencies.sort()
    facts = {
        "commits": rts.stats.txn_commits,
        "same_shard_commits": rts.stats.txn_same_shard_commits,
        "cross_shard_commits": rts.stats.txn_cross_shard_commits,
        "p50": _percentile(latencies, 0.50),
        "p95": _percentile(latencies, 0.95),
        "throughput": round(rts.stats.txn_commits / elapsed, 3),
        "conserved": conserved,
        **cluster.counters(),
    }
    cluster.shutdown()
    return facts


def run_contention_cell(seed=SEED, num_nodes=NUM_NODES, rounds=ROUNDS):
    """Guarded withdrawals hammering two hot cross-shard accounts.

    Balances start low enough that concurrent drains hit the guard, so
    the abort path (all-or-nothing backout) runs constantly; every
    aborted transfer must leave both accounts untouched.
    """
    cluster, rts, handles = _build(seed, num_accounts=2, num_shards=2,
                                   num_nodes=num_nodes,
                                   initial=rounds)
    attempts = {"n": 0}

    def mover(client_id):
        proc = cluster.sim.current_process
        src, dst = (0, 1) if client_id % 2 else (1, 0)
        for k in range(rounds):
            amount = 1 + (client_id + k) % 7
            attempts["n"] += 1
            try:
                rts.transact(proc, [(handles[src], "withdraw", (amount,)),
                                    (handles[dst], "deposit", (amount,))],
                             on_guard="abort")
            except TransactionAborted:
                pass

    for node in cluster.nodes:
        node.kernel.spawn_thread(mover, node.node_id)
    cluster.run()
    conserved = _settle(cluster, rts, handles) == 2 * rounds
    commits, aborts = rts.stats.txn_commits, rts.stats.txn_aborts
    facts = {
        "attempts": attempts["n"],
        "commits": commits,
        "aborts": aborts,
        "abort_rate": round(aborts / attempts["n"], 6),
        "conflict_retries": rts.stats.txn_retries,
        "deferred_writes": rts.stats.txn_deferred_writes,
        "conserved": conserved,
        **cluster.counters(),
    }
    cluster.shutdown()
    return facts


def run_crash_cell(seed=SEED, num_nodes=NUM_NODES, rounds=ROUNDS):
    """A participant-primary machine dies under live transaction traffic.

    Half the accounts are primary-copy with their seats parked on the
    victim; clients run only on surviving machines, so every commit is
    observed and the final balances are exactly determined by the
    committed transfers (exactly-once across the takeover and any
    presumed-abort recoveries).
    """
    victim = num_nodes - 1
    cluster, rts, handles = _build(
        seed, num_accounts=4, num_shards=2,
        policies=("broadcast", "primary-invalidate"),
        num_nodes=num_nodes)
    ledger = []

    def park_seats():
        proc = cluster.sim.current_process
        for handle in handles:
            if rts.policy_of(handle) == "primary-invalidate":
                rts.relocate_primary(proc, handle, target=victim)

    cluster.node(0).kernel.spawn_thread(park_seats)
    cluster.run()

    crash_time = {}

    def mover(node_id):
        proc = cluster.sim.current_process
        for k in range(rounds):
            src = (node_id + k) % len(handles)
            dst = (src + 1 + k % (len(handles) - 1)) % len(handles)
            amount = 1 + k % 5
            try:
                rts.transact(proc, [(handles[src], "withdraw", (amount,)),
                                    (handles[dst], "deposit", (amount,))],
                             on_guard="abort")
            except TransactionAborted:
                continue
            ledger.append((proc.local_time, src, dst, amount))

    def crasher():
        proc = cluster.sim.current_process
        proc.hold(CRASH_AT)
        crash_time["t"] = proc.local_time
        cluster.node(victim).crash()

    for node in cluster.nodes:
        if node.node_id != victim:
            node.kernel.spawn_thread(mover, node.node_id)
    cluster.node(0).kernel.spawn_thread(crasher)
    cluster.run()
    end = cluster.sim.now
    conserved = _settle(cluster, rts, handles) == 4 * INITIAL
    after = [entry for entry in ledger if entry[0] > crash_time["t"]]
    window = end - crash_time["t"]
    facts = {
        "commits": rts.stats.txn_commits,
        "aborts": rts.stats.txn_aborts,
        "txn_recoveries": rts.stats.txn_recoveries,
        "takeovers": rts.stats.primary_recoveries,
        "commits_after_crash": len(after),
        "post_window_throughput": (round(len(after) / window, 3)
                                   if window > 0 else None),
        "conserved": conserved,
        **cluster.counters(),
    }
    cluster.shutdown()
    return facts


def transaction_cells(**kwargs):
    """The four cells as zero-argument runners, sized by ``kwargs``."""
    return {
        "same-shard": partial(run_commit_cost_cell, True, **kwargs),
        "cross-shard": partial(run_commit_cost_cell, False, **kwargs),
        "contention": partial(run_contention_cell, **kwargs),
        "crash": partial(run_crash_cell, **kwargs),
    }


# ---------------------------------------------------------------------- #
# Benchmarks
# ---------------------------------------------------------------------- #


def _print_cells(title, cells):
    same, cross = cells["same-shard"], cells["cross-shard"]
    cont, crash = cells["contention"], cells["crash"]
    rows = [
        ["same-shard", f"{same['commits']} commits",
         f"p50={same['p50'] * 1e3:.3f}ms",
         f"p95={same['p95'] * 1e3:.3f}ms",
         f"{same['throughput']:.0f}/s"],
        ["cross-shard", f"{cross['commits']} commits",
         f"p50={cross['p50'] * 1e3:.3f}ms",
         f"p95={cross['p95'] * 1e3:.3f}ms",
         f"{cross['throughput']:.0f}/s"],
        ["contention", f"{cont['attempts']} attempts",
         f"aborts={cont['aborts']}",
         f"rate={cont['abort_rate']:.2f}",
         f"deferred={cont['deferred_writes']}"],
        ["crash", f"{crash['commits']} commits",
         f"recoveries={crash['txn_recoveries']}",
         f"takeovers={crash['takeovers']}",
         f"post={crash['post_window_throughput']}/s"],
    ]
    print()
    print(format_table(["cell", "volume", "…", "…", "rate"], rows, title=title))


@pytest.mark.benchmark(group="transactions")
def test_transaction_paths_commit_atomically(benchmark):
    cells = run_once(benchmark, lambda: {name: run() for name, run in transaction_cells().items()})

    same, cross = cells["same-shard"], cells["cross-shard"]
    # Path classification: one shard -> every commit is the single-record
    # fast path; two shards -> every commit paid the 2PC.
    assert same["commits"] == same["same_shard_commits"] == 2 * ROUNDS
    assert cross["commits"] == cross["cross_shard_commits"] == 2 * ROUNDS
    assert same["conserved"] and cross["conserved"]
    # Atomicity is cheaper when the order provides it: the fast path must
    # beat the 2PC on latency.
    assert same["p50"] < cross["p50"], (same, cross)

    cont = cells["contention"]
    assert cont["commits"] + cont["aborts"] == cont["attempts"]
    assert cont["aborts"] > 0, "contention cell never hit a guard"
    assert cont["conserved"], cont

    crash = cells["crash"]
    assert crash["conserved"], crash
    assert crash["takeovers"] >= 1, "the victim's seats were never taken over"
    assert crash["commits_after_crash"] > 0, ("no transaction committed after the crash")

    # Determinism: the cheapest cell replays byte-for-byte.
    repeat = run_commit_cost_cell(True)
    assert repeat == same

    benchmark.extra_info["cells"] = cells
    _print_cells(f"Cross-object transactions on {NUM_NODES} nodes (seed {SEED})", cells)

