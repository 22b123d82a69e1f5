"""The shard membership core held to the election protocol.

The protocol is that of "Controlling a Software-Defined Network via
Distributed Controllers" (Yazıcı et al., PAPERS.md): shards beat with
their incarnation epoch; a master silent past the deadline loses its
partition to the next live shard; a restored shard comes back as a
standby in a new epoch; every ownership change carries a strictly
increasing epoch, and a dpid applies only announcements newer than its
fence.  A Hypothesis state machine drives
:class:`repro.routeflow.membership.Membership` the way the sharded control
plane does — beats delivered, lost, or delayed past a fail/restore cycle,
failures, restores, detector ticks, reshards and replayed announcements —
and after every step checks that each dpid has at most one master per
epoch, that no fence decreases, that ownership follows the newest
announcement, and that only beats of a shard's current epoch count.  A
seeded mutant that applies announcements without the fence is caught.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import Phase, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.routeflow.membership import (  # noqa: E402
    HashPartitioner,
    Membership,
    ShardRole,
)

SHARDS = 3
DPIDS = tuple(range(1, 9))
#: The failure deadline of a fault-free heartbeat channel.
DEADLINE = 3.5
SHARD = st.integers(0, SHARDS - 1)


class MembershipMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.core = Membership(HashPartitioner(SHARDS))
        self.core.seed(DPIDS)
        # The model: when each shard's current epoch last beat, and per
        # dpid the (epoch, target) of the newest announcement naming it.
        self.beats = [0.0] * SHARDS
        self.newest = {dpid: (0, dpid % SHARDS) for dpid in DPIDS}
        self.stale = 0
        self.sent = []       # (epoch, from, to, dpids), in announce order
        self.delayed = []    # beats in flight: (shard, epoch when sent)
        self.masters = {}    # (dpid, fence) -> the one owner it may have
        self.fences = dict.fromkeys(DPIDS, 0)

    def _apply(self, announcement) -> None:
        """What the plane does with an announcement off the bus."""
        epoch, source, target, dpids = announcement
        admitted = self.core.admit(epoch, dpids)
        for dpid in admitted or ():
            if source != target:
                self.core.owner[dpid] = target

    def _announce(self, source: int, target: int, dpids) -> None:
        announcement = (self.core.announce(), source, target, list(dpids))
        self.sent.append(announcement)
        for dpid in dpids:
            self.newest[dpid] = (announcement[0], target)
        self._apply(announcement)

    @rule(shard=SHARD, fate=st.sampled_from(("delivered", "lost", "delayed")))
    def beat(self, shard, fate):
        if self.core.failed[shard]:
            return  # a fail-stopped shard emits nothing
        epoch = self.core.epochs[shard]
        if fate == "delivered":
            assert self.core.beat(shard, epoch, self.now)
            self.beats[shard] = self.now
        elif fate == "delayed":
            self.delayed.append((shard, epoch))

    @precondition(lambda self: self.delayed)
    @rule(pick=st.integers(0, 7))
    def deliver_delayed_beat(self, pick):
        shard, epoch = self.delayed.pop(pick % len(self.delayed))
        counts = epoch == self.core.epochs[shard]
        assert self.core.beat(shard, epoch, self.now) == counts
        if counts:
            self.beats[shard] = self.now

    @rule(shard=SHARD)
    def fail(self, shard):
        self.core.fail(shard)

    @precondition(lambda self: any(self.core.failed))
    @rule(shard=SHARD)
    def restore(self, shard):
        if not self.core.failed[shard]:
            return
        epoch = self.core.epochs[shard]
        self.core.restore(shard, self.now)
        self.beats[shard] = self.now
        assert self.core.epochs[shard] == epoch + 1
        assert self.core.role_of(shard) == (
            ShardRole.MASTER if self.core.owned(shard) else ShardRole.STANDBY)

    @rule(step=st.sampled_from((0.5, 1.0, 2.0, 4.0)))
    def tick(self, step):
        self.now += step
        for shard, silence in self.core.tick(self.now, DEADLINE):
            assert silence == self.now - self.beats[shard] > DEADLINE
            dpids = self.core.owned(shard)
            assert dpids
            target = self.core.standby_for(shard)
            if target is None:
                continue  # no live shard to adopt it: the next tick retries
            assert target != shard and not self.core.failed[target]
            self._announce(shard, target, dpids)

    @rule(dpid=st.sampled_from(DPIDS), to_shard=SHARD)
    def reshard(self, dpid, to_shard):
        source = self.core.owner_of(dpid)
        if not self.core.failed[to_shard] and source != to_shard:
            self._announce(source, to_shard, [dpid])

    @precondition(lambda self: self.sent)
    @rule(pick=st.integers(0, 15))
    def replay_announcement(self, pick):
        self.stale += 1  # every announcement already applied when sent
        self._apply(self.sent[pick % len(self.sent)])

    @invariant()
    def one_master_per_dpid_per_epoch(self):
        for dpid in DPIDS:
            owner = self.core.owner_of(dpid)
            fence = self.core.dpid_fence.get(dpid, 0)
            assert self.masters.setdefault((dpid, fence), owner) == owner
            assert fence >= self.fences[dpid]
            self.fences[dpid] = fence
            assert (fence, owner) == self.newest[dpid]
        assert self.core.stale_announcements == self.stale

    @invariant()
    def only_current_epoch_beats_count(self):
        assert self.core.last_beat == self.beats


MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=30,
                            derandomize=True, deadline=None)

TestMembershipMachine = MembershipMachine.TestCase
TestMembershipMachine.settings = MACHINE_SETTINGS


class TestSeededMutants:
    def test_kills_an_announcement_applied_without_the_fence(
            self, monkeypatch):
        def unfenced(core, epoch, dpids):
            for dpid in dpids:
                core.dpid_fence[dpid] = epoch
            return list(dpids)

        monkeypatch.setattr(Membership, "admit", unfenced)
        with pytest.raises(AssertionError):
            run_state_machine_as_test(
                MembershipMachine,
                settings=settings(MACHINE_SETTINGS, phases=(Phase.generate,),
                                  report_multiple_bugs=False))


def test_epoch_zero_is_never_admitted():
    """The fence is unconditional: an unstamped (epoch 0) announcement is
    older than every fence and counts as stale, even on a fresh core."""
    core = Membership(HashPartitioner(SHARDS))
    assert core.admit(0, [1, 2]) is None
    assert core.stale_announcements == 1
    assert core.dpid_fence == {}
    assert core.admit(core.announce(), [1, 2]) == [1, 2]
