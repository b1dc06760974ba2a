"""Sequencer election, and every change of a group's seat.

A group's seat is its ``sequencer_node_id``, ``seat_start`` (the first number
it hands out), ``epoch`` (how many seats came before it) and, on the seat's
host, its ``sequencer``; once the group is built only this module changes
them.  :class:`Election` replaces a crashed seat; :func:`install` moves it,
:func:`announce` tells the group, and :func:`handoff` is the planned move
that draining and rejoining nodes make.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .protocol import CONTROL_MESSAGE_SIZE, KIND_COORDINATOR, KIND_ELECTION
from .sequencer import Sequencer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..message import Message
    from .group import BroadcastGroup, GroupMember


class Election:
    """One member's side of the sequencer election."""

    def __init__(self, member: "GroupMember") -> None:
        self.member = member
        #: The round in progress: candidate -> (epoch, highest known seqno).
        self.votes: Dict[int, Tuple[int, int]] = {}
        #: The round's closing timer; None when this member is in no round.
        self.timer: Optional[int] = None
        node, group = member.node, member.group
        node.register_handler(group.wire_kind(KIND_ELECTION), self.on_election)
        node.register_handler(group.wire_kind(KIND_COORDINATOR), self.on_coordinator)

    def start(self) -> None:
        """Call an election, unless this member is already in a round."""
        if self.timer is None:
            self.member.group.stats.elections += 1
            self._join()

    def on_election(self, msg: "Message") -> None:
        if self.timer is None:
            self._join()  # announce ourselves as well
        headers, votes = msg.headers, self.votes
        vote = (headers["epoch"], headers["high"])
        votes[headers["candidate"]] = max(votes.get(headers["candidate"], vote), vote)

    def on_coordinator(self, msg: "Message") -> None:
        """A seat announced itself: follow it and resend what is pending.

        A new node takes the seat as :func:`install` builds it; an
        announcement from the node already followed only moves the
        numbering on (the seat it holds here is kept).
        """
        headers, group = msg.headers, self.member.group
        if headers["epoch"] < group.epoch:
            return  # announced by a seat since deposed
        if headers["sequencer"] != group.sequencer_node_id:
            install(group, headers["sequencer"], headers["next_seq"], headers["epoch"])
        else:
            group.epoch = headers["epoch"]
            if group.sequencer is not None:
                group.sequencer.log.advance_to(headers["next_seq"])
        self.reset()
        self.member.resend_pending()

    def reset(self) -> None:
        """Leave the round in progress, if any (a seat was announced, or the
        member's node crashed and the round died with it)."""
        if self.timer is not None:
            self.member.node.cancel_timer(self.timer)
            self.timer = None
        self.votes = {}

    def _join(self) -> None:
        member = self.member
        group, node = member.group, member.node
        epoch, high = group.epoch, member.engine.highest_known_seqno
        self.votes = {member.node_id: (epoch, high)}
        node.send(
            node.make_message(
                None,
                group.wire_kind(KIND_ELECTION),
                size=CONTROL_MESSAGE_SIZE,
                candidate=member.node_id,
                high=high,
                epoch=epoch,
            )
        )
        self.timer = node.set_timer(group.params.election_timeout, self._conclude)

    def _conclude(self) -> None:
        votes, self.votes, self.timer = self.votes, {}, None
        # Winner: a follower of the latest seat (a deposed seat's numbers do
        # not count), then the highest known seqno, then the lowest node id.
        winner = min(votes, key=lambda nid: (-votes[nid][0], -votes[nid][1], nid))
        member = self.member
        if winner != member.node_id:
            return  # the winner announces itself; everyone else stays quiet
        epoch, high = votes[winner]
        # Even a winner that held the seat already rebuilds it, from its own
        # history, under the new epoch.
        install(member.group, winner, high + 1, epoch + 1)
        announce(member.group)
        member.resend_pending()


def install(group: "BroadcastGroup", node_id: int, next_seq: int, epoch: int) -> None:
    """Make ``node_id`` the seat of ``group`` in ``epoch``, numbering on at ``next_seq``.

    The new sequencer's history is seeded from the hosting member's local
    state (delivered plus buffered messages), so it keeps serving
    retransmissions of messages the old seat ordered; an election winner
    holds the highest known seqno, so it is the best-informed seed.  A seat
    on another host is only recorded: its own host builds it.
    """
    old = group.sequencer
    member = group.members.get(node_id)
    group.sequencer_node_id = node_id
    group.seat_start = next_seq
    group.epoch = epoch
    group.sequencer = None if member is None else Sequencer(group, member.node)
    if old is not None:
        # A dethroned sequencer that is still alive must stop serving its
        # queue, or its stale broadcasts would collide with the seqnos the
        # successor hands out.
        old.retire()
    if member is not None:
        group.sequencer.adopt_history(member.recovery_entries())
        group.sequencer.log.advance_to(next_seq)


def announce(group: "BroadcastGroup") -> None:
    """Broadcast the group's seat from the seat's own node, so every member
    follows it and resends its pending broadcasts at it."""
    node = group.members[group.sequencer_node_id].node
    node.send(
        node.make_message(
            None,
            group.wire_kind(KIND_COORDINATOR),
            size=CONTROL_MESSAGE_SIZE,
            sequencer=group.sequencer_node_id,
            next_seq=group.seat_start,
            epoch=group.epoch,
        )
    )


def handoff(group: "BroadcastGroup", node_id: int, trust_old: bool) -> None:
    """Hand ``group``'s seat to ``node_id`` without an election, and announce it.

    Two planned (non-crash) seat transfers need this: draining a node out of
    the cluster, and a recovered node giving up a seat it held when it
    crashed.  With ``trust_old`` the numbering continues from the old seat
    (callers drain its queue first); without it the old seat's state is
    treated as lost — the rejoin case — and the successor numbers after the
    highest seqno any live, synced member has evidence of, as an election
    winner would.
    """
    if node_id == group.sequencer_node_id:
        return
    if trust_old:
        next_seq = group.sequencer.log.next_seq
    else:
        live = [member for member in group.members.values() if member.node.alive and member.synced]
        next_seq = 1 + max((member.engine.highest_known_seqno for member in live), default=0)
    install(group, node_id, next_seq, group.epoch + 1)
    announce(group)
