"""Shard membership: who is alive, who owns which datapath, and which
ownership changes may apply.

The election protocol of "Controlling a Software-Defined Network via
Distributed Controllers" (Yazıcı et al.) as a state machine with no bus
and no simulator: :class:`~repro.routeflow.sharding.ShardedControlPlane`
feeds it heartbeats and clock ticks and carries out what it decides, and
``tests/test_membership_model.py`` holds it to the protocol.  A pluggable
:class:`Partitioner` gives every dpid its initial owner; takeovers and
resharding then move dpids without consulting it again.  A beat counts
only in the shard's current incarnation *epoch*, and a dpid applies only
ownership changes newer than its *fence*.  docs/ARCHITECTURE.md ("Shard
roles, takeover and live resharding") walks through the protocol.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple


class PartitionError(ValueError):
    """Raised when a datapath cannot be assigned to a shard."""


class ShardRole:
    """The role a shard currently plays in the partition."""

    MASTER = "master"    # owns at least one datapath
    STANDBY = "standby"  # live, owns nothing; adopts a dead master's dpids
    FAILED = "failed"    # fail-stopped; processes nothing


class Partitioner:
    """Maps datapath ids to shard indices.  Subclasses are pure functions
    of the dpid (plus optional seeding), so every component that asks gets
    the same answer."""

    name = "abstract"

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise PartitionError(f"need at least one shard, got {num_shards}")
        self.num_shards = num_shards

    def seed(self, dpids) -> None:
        """Give the partitioner the universe of datapaths (optional)."""

    def shard_for(self, dpid: int) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} shards={self.num_shards}>"


class HashPartitioner(Partitioner):
    """``dpid % num_shards`` — stateless, uniform for dense dpid spaces."""

    name = "hash"

    def shard_for(self, dpid: int) -> int:
        return dpid % self.num_shards


class ContiguousPartitioner(Partitioner):
    """Sorted dpids split into ``num_shards`` contiguous blocks.

    Needs :meth:`seed` with the full dpid universe first (the framework
    seeds it from the topology at attach time).  Contiguous blocks keep
    neighbouring switches of regularly-numbered fabrics on one shard, so
    fewer links cross the partition.
    """

    name = "contiguous"

    def __init__(self, num_shards: int) -> None:
        super().__init__(num_shards)
        self._assignment: Dict[int, int] = {}

    def seed(self, dpids) -> None:
        ordered = sorted(set(dpids))
        if not ordered:
            return
        block = -(-len(ordered) // self.num_shards)  # ceil division
        self._assignment = {dpid: min(index // block, self.num_shards - 1)
                            for index, dpid in enumerate(ordered)}

    def shard_for(self, dpid: int) -> int:
        try:
            return self._assignment[dpid]
        except KeyError:
            raise PartitionError(
                f"dpid {dpid:#x} is not in the seeded universe of the "
                f"contiguous partitioner (seed() it from the topology "
                f"first)") from None


class ASPartitioner(Partitioner):
    """Shard per autonomous system: every switch of an AS lands on the
    same controller shard (ASes are dealt round-robin over the shards in
    ascending AS-number order).  Interdomain deployments use this so each
    shard hosts whole routing domains and only eBGP border traffic crosses
    the partition."""

    name = "as"

    def __init__(self, num_shards: int, as_map: Mapping[int, int]) -> None:
        super().__init__(num_shards)
        if not as_map:
            raise PartitionError(
                "the AS partitioner needs a dpid->AS map "
                "(FrameworkConfig.as_map, set by interdomain scenarios)")
        self._as_map = dict(as_map)
        ases = sorted(set(self._as_map.values()))
        self._shard_of_as = {asn: index % num_shards
                             for index, asn in enumerate(ases)}

    def shard_for(self, dpid: int) -> int:
        asn = self._as_map.get(dpid)
        if asn is None:
            raise PartitionError(
                f"dpid {dpid:#x} has no AS assignment in the as_map")
        return self._shard_of_as[asn]


#: Partitioner kinds selectable through ``FrameworkConfig.partitioner``.
PARTITIONERS = ("hash", "contiguous", "as")


def make_partitioner(kind: str, num_shards: int,
                     as_map: Optional[Mapping[int, int]] = None) -> Partitioner:
    """Build a partitioner by name (``hash``/``contiguous``/``as``)."""
    if kind == "hash":
        return HashPartitioner(num_shards)
    if kind == "contiguous":
        return ContiguousPartitioner(num_shards)
    if kind == "as":
        return ASPartitioner(num_shards, as_map or {})
    raise PartitionError(
        f"unknown partitioner {kind!r}; known kinds: " + ", ".join(PARTITIONERS))


class Membership:
    """The membership state of N shards and the datapaths they own."""

    def __init__(self, partitioner: Partitioner, now: float = 0.0) -> None:
        self.partitioner = partitioner
        count = partitioner.num_shards
        #: Per shard: fail-stopped, incarnation epoch, and when its current
        #: incarnation last beat.
        self.failed = [False] * count
        self.epochs = [0] * count
        self.last_beat = [now] * count
        #: dpid -> owning shard, lazily seeded from the partitioner.
        self.owner: Dict[int, int] = {}
        #: The topology's dpids, given at attach time.
        self.universe: List[int] = []
        #: The epoch of the last announced ownership change, and per dpid
        #: the highest announced epoch applied to it.
        self.fence_epoch = 0
        self.dpid_fence: Dict[int, int] = {}
        #: Announcements the fence filtered wholesale (stale or duplicated
        #: replays on a lossy bus).
        self.stale_announcements = 0

    # ------------------------------------------------------------- liveness
    def fail(self, shard_id: int) -> None:
        self.failed[shard_id] = True

    def restore(self, shard_id: int, now: float) -> None:
        """The shard returns in a new epoch, its heartbeat clock restarted
        now.  It owns what it owned when it failed — nothing, once its
        partition has been taken over — so it comes back as a standby."""
        self.failed[shard_id] = False
        self.epochs[shard_id] += 1
        self.last_beat[shard_id] = now

    def beat(self, shard_id: int, epoch: int, now: float) -> bool:
        """A heartbeat arrived; only one from the shard's current epoch
        counts.  Returns whether it did."""
        if not 0 <= shard_id < len(self.epochs) \
                or epoch != self.epochs[shard_id]:
            return False
        self.last_beat[shard_id] = now
        return True

    def tick(self, now: float, deadline: float) -> Iterator[Tuple[int, float]]:
        """The failure detector: each master silent for longer than
        ``deadline``, with its silence.  Lazy, so a takeover applied
        between two yields is seen by the shards after it."""
        for shard_id, last_beat in enumerate(self.last_beat):
            silence = now - last_beat
            if silence > deadline and self.owned(shard_id):
                yield shard_id, silence

    # ---------------------------------------------------------------- roles
    def role_of(self, shard_id: int) -> str:
        """The shard's :class:`ShardRole`."""
        if self.failed[shard_id]:
            return ShardRole.FAILED
        return ShardRole.MASTER if self.owned(shard_id) else ShardRole.STANDBY

    def standby_for(self, shard_id: int) -> Optional[int]:
        """The shard that adopts ``shard_id``'s partition if it dies: the
        next live shard in ring order (None if no other shard is live)."""
        count = len(self.failed)
        for offset in range(1, count):
            candidate = (shard_id + offset) % count
            if not self.failed[candidate]:
                return candidate
        return None

    # ------------------------------------------------------------ ownership
    def seed(self, dpids) -> None:
        self.universe = sorted(set(dpids))
        self.partitioner.seed(self.universe)

    def owner_of(self, dpid: int) -> int:
        """The shard owning a dpid.  First contact consults the
        partitioner and memoises the answer."""
        owner = self.owner.get(dpid)
        if owner is None:
            owner = self.owner[dpid] = self.partitioner.shard_for(dpid)
        return owner

    def known(self) -> List[int]:
        """Every dpid heard of (topology seed or ownership map), ascending."""
        return sorted(set(self.universe) | set(self.owner))

    def owned(self, shard_id: int) -> List[int]:
        """The dpids a shard owns, ascending."""
        return [dpid for dpid in self.known() if self.owner_of(dpid) == shard_id]

    # -------------------------------------------------------------- fencing
    def announce(self) -> int:
        """The epoch of a new ownership change."""
        self.fence_epoch += 1
        return self.fence_epoch

    def admit(self, epoch: int, dpids: List[int]) -> Optional[List[int]]:
        """The dpids of an announcement at ``epoch`` that may change owner:
        those whose fence is older, which is raised to ``epoch``.  None
        when the fence filters every dpid (a duplicated or delayed replay
        must not count as a takeover).  :meth:`announce` stamps epochs from
        1, so an epoch-0 payload is older than every fence: always filtered."""
        admitted = [dpid for dpid in dpids
                    if epoch > self.dpid_fence.get(dpid, 0)]
        if not admitted:
            self.stale_announcements += 1
            return None
        for dpid in admitted:
            self.dpid_fence[dpid] = epoch
        return admitted
