"""Pluggable TE policies: who moves which destination onto which path.

Every policy sees the same :class:`TEView` — the last utilization
snapshot, who crosses a given link, the live commodities with their
resolved paths, a bound k-shortest-path oracle and the currently applied
steers — and returns the *complete* desired steer set (one path per
steered destination).
The controller diffs that against what is installed and actuates only
the changes, so a policy that keeps returning the same answer causes no
churn.

Three implementations ship:

``static-ecmp``
    Utilization-blind: hashes each destination onto one of its
    equal-cost shortest paths, once, and never moves it again.  The
    baseline the adaptive policies are measured against.
``greedy``
    Moves traffic crossing hot links onto the candidate path with the
    strictly lowest bottleneck utilization; never selects a path whose
    bottleneck is at or above the one it abandons.
``bandit``
    Epsilon-greedy multi-armed bandit over candidate paths per
    destination, reward = negative bottleneck utilization observed one
    measurement interval after acting (a LinUCB-style contextual
    learner would slot in the same way — arms and rewards are already
    per-(destination, path)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim import SeededRandom

Path = Tuple[int, ...]
LinkKey = Tuple[int, int]
#: Steers are keyed (ingress, dst): several detours may serve the same
#: destination from different ingresses, spreading a sink whose demand
#: exceeds any single path's capacity across parallel paths.
SteerKey = Tuple[int, int]


@dataclass(frozen=True)
class Steer:
    """Route destination ``dst`` along ``path`` (path[-1] == dst)."""

    dst: int
    path: Path

    @property
    def key(self) -> SteerKey:
        return (self.path[0], self.dst)


@dataclass(frozen=True)
class CommodityView:
    """One (source, destination) aggregate as a policy sees it."""

    src: int
    dst: int
    offered_bps: float
    #: Resolved datapath path src..dst, or None while unrouted.
    path: Optional[Path]


@dataclass(frozen=True)
class TEView:
    """Everything a policy may base a decision on."""

    #: canonical (a, b) -> utilization fraction over the last interval.
    utilization: Mapping[LinkKey, float]
    #: Bound k-shortest-path oracle: ``ksp(src, dst) -> [path, ...]``.
    ksp: Callable[[int, int], List[Path]]
    #: Currently applied steers, (ingress, dst) -> path.
    steers: Mapping[SteerKey, Path]
    #: ``crossing((a, b))``: the routed commodities whose path crosses the
    #: canonical link, in commodity order, read from the fluid engine's
    #: link index (a policy chasing a hot link never scans the matrix).
    crossing: Callable[[LinkKey], Sequence[CommodityView]]
    #: Builds :attr:`commodities`, which costs one view per commodity and
    #: so is only made for a policy that reads it.
    all_commodities: Callable[[], Sequence[CommodityView]]
    now: float = 0.0

    @cached_property
    def commodities(self) -> Sequence[CommodityView]:
        return self.all_commodities()


# ---------------------------------------------------------------------------
# pure helpers (property-tested directly)
# ---------------------------------------------------------------------------
def path_links(path: Sequence[int]) -> Tuple[LinkKey, ...]:
    """The canonical (lo, hi) link keys a node path crosses."""
    return tuple((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))


def bottleneck(path: Sequence[int],
               utilization: Mapping[LinkKey, float]) -> float:
    """The hottest-link utilization along a path (0.0 when off-path)."""
    links = path_links(path)
    if not links:
        return 0.0
    return max(utilization.get(key, 0.0) for key in links)


def ecmp_split(rate_bps: float, ways: int) -> List[float]:
    """Split a demand across ``ways`` equal-cost paths, conserving it to
    within one ulp of the total (the first share absorbs the residue).

    Exact left-to-right-sum equality is unachievable in general — the
    correction itself rounds, and the refinement can oscillate between
    the two neighbouring floats — so two refinement passes pin the
    residue at <= 1 ulp of ``rate_bps``, the property the test suite
    asserts.
    """
    if ways < 1:
        raise ValueError("ways must be >= 1")
    shares = [rate_bps / ways] * ways
    shares[0] += rate_bps - sum(shares)
    shares[0] += rate_bps - sum(shares)
    return shares


def suffix_compatible(candidate: Sequence[int],
                      peers: Sequence[Sequence[int]]) -> bool:
    """True when ``candidate`` can coexist with ``peers`` (steers toward
    the same destination) under destination-based forwarding.

    Each node forwards by destination alone, so two steers for one
    destination that pass through a shared node must agree on the next
    hop there — equivalently, share their suffix from that node on.
    Traffic then follows the default shortest-path tree until it hits
    any steered node and rides that steer's suffix straight to the
    destination: no node ever has two successors, and no loop can form.
    """
    successor: Dict[int, int] = {}
    for peer in peers:
        for hop, nxt in zip(peer, peer[1:]):
            successor[hop] = nxt
    return all(successor.get(hop, nxt) == nxt
               for hop, nxt in zip(candidate, candidate[1:]))


def greedy_choice(candidates: Sequence[Path], current_path: Sequence[int],
                  utilization: Mapping[LinkKey, float],
                  peers: Sequence[Sequence[int]] = ()) -> Optional[Path]:
    """The least-utilized candidate, or None when nothing strictly beats
    the path being abandoned.

    The returned path's bottleneck is strictly below the abandoned
    path's, so no link on it is utilized at or above the level the
    greedy policy is fleeing — the invariant the property suite pins.
    When ``peers`` (sibling steers for the same destination) are given,
    only :func:`suffix_compatible` candidates qualify.
    """
    abandoned = bottleneck(current_path, utilization)
    ranked = sorted(((bottleneck(candidate, utilization), len(candidate),
                      tuple(candidate)) for candidate in candidates))
    for cost, _length, candidate in ranked:
        if cost >= abandoned:
            return None
        if suffix_compatible(candidate, peers):
            return candidate
    return None


def _crossing_weights(view: TEView,
                      key: LinkKey) -> List[Tuple[float, int, int, Path]]:
    """Traffic crossing a link, heaviest first.

    Returns ``(offered_bps, ingress, dst, current_path)`` per
    (ingress, destination) aggregate, where ``ingress`` is the node the
    traffic enters the link from on its way to ``dst`` — the natural
    place a destination-based detour starts.  Grouping by ingress (not
    source) pools every commodity funnelled through the link toward the
    same destination into one steer, so a single move shifts the whole
    aggregate.
    """
    grouped: Dict[Tuple[int, int], float] = {}
    paths: Dict[Tuple[int, int], Path] = {}
    for commodity in view.crossing(key):
        path = commodity.path
        for node_a, node_b in zip(path, path[1:]):
            if (min(node_a, node_b), max(node_a, node_b)) == key:
                group = (node_a, commodity.dst)
                grouped[group] = grouped.get(group, 0.0) + commodity.offered_bps
                paths[group] = path
                break
    ranked = [(bps, ingress, dst, paths[(ingress, dst)])
              for (ingress, dst), bps in grouped.items()]
    ranked.sort(key=lambda item: (-item[0], item[1], item[2]))
    return ranked


# ---------------------------------------------------------------------------
# the policy interface and its implementations
# ---------------------------------------------------------------------------
class TEPolicy:
    """Base class: subclasses override :meth:`decide` (and optionally
    :meth:`observe`, called with the fresh view before each decision)."""

    name = "base"

    def decide(self, view: TEView) -> List[Steer]:
        raise NotImplementedError

    def observe(self, view: TEView) -> None:
        """Feedback hook: the snapshot one interval after the last act."""


class StaticECMPPolicy(TEPolicy):
    """Hash every destination onto one of its equal-cost shortest paths.

    Blind to utilization by design: once a destination is pinned the
    answer never changes, so after the first tick this policy causes
    zero churn — the static baseline.
    """

    name = "static-ecmp"

    def __init__(self) -> None:
        self._pinned: Dict[SteerKey, Path] = {}

    def decide(self, view: TEView) -> List[Steer]:
        for commodity in sorted(view.commodities,
                                key=lambda c: (c.src, c.dst)):
            key = (commodity.src, commodity.dst)
            if commodity.path is None or key in self._pinned:
                continue
            candidates = view.ksp(commodity.src, commodity.dst)
            if not candidates:
                continue
            shortest = len(candidates[0])
            equal_cost = [path for path in candidates
                          if len(path) == shortest]
            index = (commodity.src * 31 + commodity.dst * 7) % len(equal_cost)
            peers = [path for (_i, dst), path in self._pinned.items()
                     if dst == commodity.dst]
            # Rotate from the hashed pick to the first pin that agrees
            # with the destination's other pins on every shared node.
            for offset in range(len(equal_cost)):
                choice = equal_cost[(index + offset) % len(equal_cost)]
                if suffix_compatible(choice, peers):
                    self._pinned[key] = choice
                    break
        return [Steer(dst, path)
                for (_ingress, dst), path in sorted(self._pinned.items())]


class GreedyLeastUtilizedPolicy(TEPolicy):
    """Move the heaviest traffic off hot links onto the coldest path.

    For every link at or above ``threshold`` (hottest first), the
    heaviest (ingress, destination) aggregates crossing it are offered
    the k-shortest candidates from their ingress; a move happens only
    when :func:`greedy_choice` finds a strictly lower bottleneck.
    """

    name = "greedy"

    def __init__(self, threshold: float = 0.7, max_moves: int = 4) -> None:
        self.threshold = threshold
        self.max_moves = max_moves

    def decide(self, view: TEView) -> List[Steer]:
        desired: Dict[SteerKey, Path] = dict(view.steers)
        moves = 0
        hot = sorted(((value, key)
                      for key, value in view.utilization.items()
                      if value >= self.threshold),
                     key=lambda item: (-item[0], item[1]))
        for _value, key in hot:
            if moves >= self.max_moves:
                break
            for _bps, ingress, dst, current in _crossing_weights(view, key):
                if moves >= self.max_moves:
                    break
                steer_key = (ingress, dst)
                candidates = [path for path in view.ksp(ingress, dst)
                              if path != desired.get(steer_key)]
                peers = [path for other, path in desired.items()
                         if other[1] == dst and other != steer_key]
                choice = greedy_choice(candidates, current, view.utilization,
                                       peers=peers)
                if choice is not None and desired.get(steer_key) != choice:
                    desired[steer_key] = choice
                    moves += 1
        return [Steer(dst, path)
                for (_ingress, dst), path in sorted(desired.items())]


class BanditPolicy(TEPolicy):
    """Epsilon-greedy bandit over candidate paths per hot destination.

    Arms are (destination, path) pairs.  Acting on an arm installs the
    steer; one interval later :meth:`observe` credits the arm with the
    negative bottleneck utilization its path then shows.  Unseen arms
    are primed with the *current* measured bottleneck of their path —
    the utilization snapshot is the context, LinUCB-style — so the
    learner starts from the greedy answer and refines it with observed
    rewards instead of blindly cycling through every candidate.
    """

    name = "bandit"

    def __init__(self, threshold: float = 0.7, epsilon: float = 0.1,
                 seed: int = 0, max_moves: int = 4) -> None:
        self.threshold = threshold
        self.epsilon = epsilon
        self.max_moves = max_moves
        self.rng = SeededRandom(seed)
        #: (dst, path) -> [pull count, mean reward]
        self._arms: Dict[Tuple[int, Path], List[float]] = {}
        #: Steers acted on last tick, awaiting their reward.
        self._pending: Dict[SteerKey, Path] = {}

    def observe(self, view: TEView) -> None:
        for (_ingress, dst), path in sorted(self._pending.items()):
            reward = -bottleneck(path, view.utilization)
            count, mean = self._arms.setdefault((dst, path), [0, 0.0])
            self._arms[(dst, path)][0] = count + 1
            self._arms[(dst, path)][1] = mean + (reward - mean) / (count + 1)
        self._pending.clear()

    def _estimate(self, dst: int, path: Path,
                  utilization: Mapping[LinkKey, float]) -> float:
        arm = self._arms.get((dst, path))
        if arm is not None:
            return arm[1]
        # Contextual prior for an unpulled arm: what the path's reward
        # would be if the current snapshot held.
        return -bottleneck(path, utilization)

    def decide(self, view: TEView) -> List[Steer]:
        desired: Dict[SteerKey, Path] = dict(view.steers)
        moves = 0
        hot = sorted(((value, key)
                      for key, value in view.utilization.items()
                      if value >= self.threshold),
                     key=lambda item: (-item[0], item[1]))
        for _value, key in hot:
            if moves >= self.max_moves:
                break
            for _bps, ingress, dst, current in _crossing_weights(view, key):
                if moves >= self.max_moves:
                    break
                steer_key = (ingress, dst)
                peers = [path for other, path in desired.items()
                         if other[1] == dst and other != steer_key]
                candidates = [path for path in view.ksp(ingress, dst)
                              if suffix_compatible(path, peers)]
                if not candidates:
                    continue
                if self.rng.random() < self.epsilon:
                    choice = candidates[self.rng.randint(0, len(candidates) - 1)]
                else:
                    choice = max(
                        candidates,
                        key=lambda path: (self._estimate(dst, path,
                                                         view.utilization),
                                          -len(path), tuple(path)))
                    # Exploitation only moves when the pick looks
                    # strictly better than the path it would abandon;
                    # exploration (above) is the budget for churn.
                    held = desired.get(steer_key, tuple(current))
                    if (choice != held
                            and self._estimate(dst, choice, view.utilization)
                            <= self._estimate(dst, tuple(held),
                                              view.utilization)):
                        continue
                if desired.get(steer_key) != choice:
                    desired[steer_key] = choice
                    self._pending[steer_key] = choice
                    moves += 1
        return [Steer(dst, path)
                for (_ingress, dst), path in sorted(desired.items())]


def make_policy(spec) -> TEPolicy:
    """Instantiate the policy a :class:`~repro.te.spec.TESpec` names."""
    if spec.policy == "static-ecmp":
        return StaticECMPPolicy()
    if spec.policy == "greedy":
        return GreedyLeastUtilizedPolicy(threshold=spec.threshold,
                                         max_moves=spec.max_steers_per_tick)
    if spec.policy == "bandit":
        return BanditPolicy(threshold=spec.threshold, epsilon=spec.epsilon,
                            seed=spec.seed,
                            max_moves=spec.max_steers_per_tick)
    raise ValueError(f"unknown TE policy {spec.policy!r}")
