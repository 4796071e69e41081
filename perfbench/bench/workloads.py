"""Workload definitions and the seeded input generator.

Every measured iteration is one server write batch followed by one
client sync.  The client holds the server's set as it was before the
write, adjusted by the workload's own divergence, so the true
difference of every sync is known in advance:

* ``only_in_server`` = the batch's fresh adds + items the client misses;
* ``only_in_client`` = items the batch removed that the client still
  holds + the client's own extra items.

With ``push=True`` the client pushes its exclusives back, so the
generator's mirror of the server set re-adds them.  Inputs depend only
on ``(workload, seed)``: one ``random.Random`` stream seeded from both
drives the initial set, the warm-up clients and every iteration.

Fresh items are a seeded bijection of a running counter, so they are
distinct by construction and the generator's memory stays the same size
however many iterations a run makes (``peak_rss_mb`` counts it too).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ITEM_SIZE = 8
NUM_SHARDS = 4
BLOCK_SIZE = 128
WARMUP_SYNCS = 2
MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """The splitmix64 finaliser: a bijection on 64-bit integers."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class Workload:
    """One workload's shape; why each exists is in README.md and BENCHMARK.json."""

    name: str
    set_size: int
    adds: int
    """Fresh items the server adds per write (client lacks them)."""
    removes: int
    """Server items removed per write that the client still holds."""
    shared_removes: int = 0
    """Server items removed per write that the client also dropped."""
    missing: int = 0
    """Server items (not churned) the client lacks."""
    extra: int = 0
    """Fresh client-only items per sync."""
    push: bool = False
    durable: bool = False

    @property
    def difference(self) -> int:
        return self.adds + self.removes + self.missing + self.extra


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "resync-small-diff",
            set_size=100_000,
            adds=16,
            removes=16,
        ),
        Workload(
            "bulk-diff",
            set_size=20_000,
            adds=16,
            removes=16,
            missing=2032,
            extra=2032,
        ),
        Workload(
            "churn-push",
            set_size=20_000,
            adds=64,
            removes=64,
            shared_removes=64,
            push=True,
            durable=True,
        ),
    )
}


@dataclass
class Iteration:
    index: int
    adds: list
    removes: list
    """Everything the server removes in this write (``removes`` +
    ``shared_removes`` of the workload)."""
    client: list
    only_in_server: set
    only_in_client: set


class Generator:
    """Seeded inputs for one workload: initial set, warm-ups, iterations."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._rng = random.Random(f"perfbench:{workload.name}:{seed}")
        self._key = self._rng.getrandbits(64)
        self._counter = 0
        self.initial = self._fresh(workload.set_size)
        self._warmups = [
            self._warmup_client(self.initial) for _ in range(WARMUP_SYNCS)
        ]
        self.members: list = list(self.initial)
        self._index = 0

    def _fresh(self, n: int) -> list:
        """``n`` items never produced before by this generator."""
        key, start = self._key, self._counter
        self._counter = start + n
        return [
            mix64(key ^ c).to_bytes(ITEM_SIZE, "little")
            for c in range(start, start + n)
        ]

    def _warmup_client(self, members: list) -> tuple:
        """A read-only sync twice the workload's difference (fills the bank)."""
        half = max(1, self.workload.difference)
        missing = set(self._rng.sample(members, half))
        extra = self._fresh(half)
        client = [x for x in members if x not in missing] + extra
        return client, missing, set(extra)

    def warmups(self) -> list:
        """``(client_items, only_in_server, only_in_client)`` per warm-up sync."""
        return list(self._warmups)

    def next_iteration(self) -> Iteration:
        w = self.workload
        rng = self._rng
        members = self.members
        # Pick the write's removals and the client's misses in one draw
        # so the groups are disjoint.
        picks = w.removes + w.shared_removes + w.missing
        chosen = [members[i] for i in rng.sample(range(len(members)), picks)]
        removes = chosen[: w.removes]
        shared = chosen[w.removes : w.removes + w.shared_removes]
        missing = chosen[w.removes + w.shared_removes :]
        adds = self._fresh(w.adds)
        extra = self._fresh(w.extra)
        excluded = set(shared) | set(missing)
        if excluded:
            client = [x for x in members if x not in excluded] + extra
        else:
            client = members + extra
        gone = set(removes) | set(shared)
        # The mirror follows the server: write applied, then pushes.
        kept = [x for x in members if x not in gone] + adds
        if w.push:
            kept += removes + extra
        self.members = kept
        iteration = Iteration(
            index=self._index,
            adds=adds,
            removes=removes + shared,
            client=client,
            only_in_server=set(adds) | set(missing),
            only_in_client=set(removes) | set(extra),
        )
        self._index += 1
        return iteration
