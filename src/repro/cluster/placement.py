"""Placement: who owns which slice of the (AS, prefix) policy space.

A :class:`Placement` is the partition as a *value*: an immutable,
picklable object mapping every (AS, prefix) pair to a shard, shippable
to workers and swappable online.  It matters where a worker owns
per-region state (the cluster's commitment caches); the serve layer's
stateless pool has none and takes no placement.  Three strategies:

* :class:`StaticHash` — the classic modulo partition
  (``pair_key(asn, prefix) % n``, pinned bit for bit by
  ``tests/test_cluster.py``);
* :class:`ConsistentHash` — a virtual-node hash ring.  Adding or
  removing a shard moves only the keys whose ring segment changed
  (expected K/N of K keys), and every key that moves lands on the
  shard being added — the property that makes *online resharding*
  cheap, because only the migrated slice's commitment-cache entries
  travel;
* :class:`HotSplit` — a slot-mapped partition driven by the observed
  per-shard load (the cluster metrics' ``placement.load`` map):
  :meth:`HotSplit.rebalance` splits the hottest shard's slots with the
  coldest shard, deterministically, between epochs.

Placements are compared and migrated with :func:`moved_pairs`; string
specs (``"static"``, ``"consistent"``, ``"hotsplit"``) resolve through
:func:`make_placement` for CLIs and configs.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Tuple

__all__ = [
    "ConsistentHash",
    "HotSplit",
    "Placement",
    "StaticHash",
    "make_placement",
    "moved_pairs",
    "pair_key",
]


def pair_key(asn: str, prefix: object) -> int:
    """A stable 64-bit content hash for one (AS, prefix) pair — not
    Python's randomized ``hash()``, so assignments are reproducible
    across processes, runs and hosts."""
    digest = hashlib.sha256(f"{asn}|{prefix}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Placement:
    """Strategy interface: an immutable map from pairs to shard ids.

    ``shards`` is the number of shard slots (``owner`` returns ids in
    ``0..shards-1``); implementations must be picklable values —
    workers receive them over IPC, and online resharding is "replace
    the placement object everywhere, migrate what moved".
    """

    shards: int

    def owner(self, asn: str, prefix: object) -> int:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """A JSON-able summary for metrics snapshots."""
        return {"strategy": type(self).__name__, "shards": self.shards}


def _check_shards(shards: int) -> int:
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    return shards


@dataclass(frozen=True)
class StaticHash(Placement):
    """The fixed modulo partition: ``pair_key % shards``."""

    shards: int

    def __post_init__(self) -> None:
        _check_shards(self.shards)

    def owner(self, asn: str, prefix: object) -> int:
        return pair_key(asn, prefix) % self.shards

    def with_shards(self, shards: int) -> "StaticHash":
        return StaticHash(shards)


def _ring_position(salt: str, shard: int, vnode: int) -> int:
    digest = hashlib.sha256(
        f"ring|{salt}|{shard}#{vnode}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ConsistentHash(Placement):
    """A virtual-node hash ring over the 64-bit key space.

    Each shard owns ``vnodes`` ring positions; a pair belongs to the
    first position clockwise of its :func:`pair_key`.  Growing the ring
    by one shard (:meth:`with_shards`) moves only the keys falling in
    the new shard's stolen segments — every moved key's new owner *is*
    the added shard, and the expected moved fraction is 1/(N+1).
    ``salt`` decorrelates independent rings.
    """

    shards: int
    vnodes: int = 64
    salt: str = ""
    #: the sorted ring, derived — excluded from comparison/pickle churn
    _positions: Tuple[int, ...] = field(
        default=(), compare=False, repr=False
    )
    _owners: Tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        _check_shards(self.shards)
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes}")
        self._build_ring()

    def _build_ring(self) -> None:
        ring = sorted(
            (_ring_position(self.salt, shard, vnode), shard)
            for shard in range(self.shards)
            for vnode in range(self.vnodes)
        )
        object.__setattr__(self, "_positions", tuple(p for p, _ in ring))
        object.__setattr__(self, "_owners", tuple(s for _, s in ring))

    def __getstate__(self):
        # rebuild the ring on the far side instead of shipping it
        return (self.shards, self.vnodes, self.salt)

    def __setstate__(self, state):
        shards, vnodes, salt = state
        object.__setattr__(self, "shards", shards)
        object.__setattr__(self, "vnodes", vnodes)
        object.__setattr__(self, "salt", salt)
        self._build_ring()

    def owner(self, asn: str, prefix: object) -> int:
        key = pair_key(asn, prefix)
        index = bisect.bisect_left(self._positions, key)
        if index == len(self._positions):
            index = 0  # wrap past the top of the ring
        return self._owners[index]

    def with_shards(self, shards: int) -> "ConsistentHash":
        """The same ring with ``shards`` shard slots — the reshard
        primitive (grow or shrink by any amount)."""
        return replace(self, shards=_check_shards(shards))

    def describe(self) -> Dict[str, object]:
        summary = super().describe()
        summary["vnodes"] = self.vnodes
        return summary


@dataclass(frozen=True)
class HotSplit(Placement):
    """A slot-mapped partition that splits hot shards between epochs.

    The 64-bit key space is folded onto ``slots`` fixed buckets
    (``pair_key % slots``); ``assignment[slot]`` names the owning
    shard.  The initial assignment round-robins slots across shards
    (equivalent in expectation to :class:`StaticHash`).
    :meth:`rebalance` consumes the per-shard load ledger the serve
    metrics already export — ``{shard: fresh verifications}`` — and
    moves every *other* slot of the hottest shard to the coldest one:
    a deterministic function of the loads, so independent observers
    (cluster coordinator, each worker) derive the same next placement.
    """

    shards: int
    slots: int = 256
    assignment: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_shards(self.shards)
        if self.slots < self.shards:
            raise ValueError(
                f"need at least one slot per shard "
                f"({self.slots} slots < {self.shards} shards)"
            )
        if not self.assignment:
            object.__setattr__(
                self,
                "assignment",
                tuple(slot % self.shards for slot in range(self.slots)),
            )
        if len(self.assignment) != self.slots:
            raise ValueError(
                f"assignment covers {len(self.assignment)} slots, "
                f"expected {self.slots}"
            )
        if self.assignment and not all(
            0 <= shard < self.shards for shard in self.assignment
        ):
            raise ValueError("assignment names an out-of-range shard")

    def owner(self, asn: str, prefix: object) -> int:
        return self.assignment[pair_key(asn, prefix) % self.slots]

    def rebalance(self, loads: Mapping[int, int]) -> "HotSplit":
        """Split the hottest shard's slots with the coldest shard.

        ``loads`` maps shard id to observed load (missing shards count
        as zero — an idle shard is the natural split target).  Ties
        break toward the lower shard id, so the result is a pure
        function of ``loads``.  Returns ``self`` when there is nothing
        to do (one shard, or no observed skew).
        """
        if self.shards < 2:
            return self
        totals = {shard: 0 for shard in range(self.shards)}
        for shard, load in loads.items():
            if shard in totals:
                totals[shard] += int(load)
        hottest = max(totals, key=lambda s: (totals[s], -s))
        coldest = min(totals, key=lambda s: (totals[s], s))
        if hottest == coldest or totals[hottest] <= totals[coldest]:
            return self
        owned = [
            slot for slot, shard in enumerate(self.assignment)
            if shard == hottest
        ]
        if len(owned) < 2:
            return self  # nothing left to split
        moved = set(owned[1::2])  # every other slot, deterministically
        assignment = tuple(
            coldest if slot in moved else shard
            for slot, shard in enumerate(self.assignment)
        )
        return replace(self, assignment=assignment)

    def describe(self) -> Dict[str, object]:
        summary = super().describe()
        summary["slots"] = self.slots
        summary["slots_per_shard"] = {
            str(shard): self.assignment.count(shard)
            for shard in range(self.shards)
        }
        return summary


def moved_pairs(
    old: Placement,
    new: Placement,
    pairs: Iterable[Tuple[str, object]],
) -> List[Tuple[str, object]]:
    """The pairs whose owner changes going from ``old`` to ``new`` —
    the migration set of a reshard."""
    return [
        (asn, prefix)
        for asn, prefix in pairs
        if old.owner(asn, prefix) != new.owner(asn, prefix)
    ]


def make_placement(spec: object, shards: int) -> Placement:
    """Resolve a placement spec: an instance passes through, ``None``
    and the strategy names ``"static"`` / ``"consistent"`` /
    ``"hotsplit"`` build one over ``shards`` shard slots."""
    if isinstance(spec, Placement):
        return spec
    if spec is None or spec == "static":
        return StaticHash(shards)
    if spec == "consistent":
        return ConsistentHash(shards)
    if spec == "hotsplit":
        return HotSplit(shards)
    raise ValueError(
        f"unknown placement {spec!r}; "
        f"expected static, consistent or hotsplit"
    )
