"""Kademlia-lite node discovery.

Real Ethereum uses discv4: nodes maintain XOR-metric buckets and find
peers by iterative lookups toward random targets.  The emergent property
the paper leans on (§III-B1) is that the resulting neighbour relations are
*uniformly random with respect to geography*.  We reproduce the mechanism
at the level that matters:

* every node registers in a global :class:`DiscoveryService` (stands in
  for the bootstrap-node infrastructure);
* ``lookup(target, k)`` returns the ``k`` registered nodes closest to
  ``target`` by XOR distance;
* peer selection samples random targets and dials the lookup results,
  yielding geography-independent peer sets.

Lookups walk a sorted identifier array as an implicit binary trie rather
than sorting the whole population by distance per call: at ``n`` nodes a
full topology build performs ``O(n)`` lookups, and the old
``sorted(ids, key=xor_distance)`` made the build ``O(n² log n)`` — the
dominant cost of constructing a 15 000-peer ``mainnet`` scenario.  The
trie walk returns the *exact* same ids in the same order (identifiers
are unique, so XOR distances to any target are unique and the nearest-k
set is unambiguous).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.errors import ConfigurationError
from repro.p2p.node_id import NODE_ID_BITS, random_node_id, skip_node_ids

#: discv4 bucket size.
BUCKET_SIZE = 16


def _collect_nearest(
    ids: list[int],
    target: int,
    lo: int,
    hi: int,
    bit: int,
    prefix: int,
    out: list[int],
    want: int,
) -> None:
    """Append ids from ``ids[lo:hi]`` to ``out`` in ascending XOR distance.

    ``ids`` is sorted ascending and every id in the range shares
    ``prefix`` above ``bit``.  Descending the half whose bit matches the
    target's first yields strictly ascending distances: a differing top
    bit dominates every lower bit of the XOR metric.  Stops once ``out``
    holds ``want`` ids.
    """
    while True:
        remaining = hi - lo
        if remaining <= 0 or len(out) >= want:
            return
        if remaining == 1:
            out.append(ids[lo])
            return
        mask = 1 << bit
        mid = bisect_left(ids, prefix | mask, lo, hi)
        if target & mask:
            near_lo, near_hi, near_prefix = mid, hi, prefix | mask
            far_lo, far_hi, far_prefix = lo, mid, prefix
        else:
            near_lo, near_hi, near_prefix = lo, mid, prefix
            far_lo, far_hi, far_prefix = mid, hi, prefix | mask
        bit -= 1
        _collect_nearest(ids, target, near_lo, near_hi, bit, near_prefix, out, want)
        # Tail-call into the far half (loop instead of recursing).
        lo, hi, prefix = far_lo, far_hi, far_prefix


class DiscoveryService:
    """Global registry emulating the discv4 DHT's steady state.

    The simulator does not model discovery round-trips — they happen on a
    much faster timescale than block propagation and do not influence any
    measured metric.  What is preserved is the *distribution* of peer
    links produced by XOR-metric lookups of random targets.
    """

    def __init__(self) -> None:
        self._registered: dict[int, object] = {}
        #: Ascending id array backing the trie walk; rebuilt lazily on the
        #: first lookup after any membership change.  Scenario construction
        #: registers every node before the first dial, so a build costs one
        #: sort, and mid-run churn (rare) one sort per re-dial wave.
        self._sorted_ids: list[int] = []
        self._dirty = False

    def __len__(self) -> int:
        return len(self._registered)

    def register(self, node_id: int, node: object) -> None:
        """Add a node to the overlay.

        Raises:
            ConfigurationError: on duplicate node identifiers.
        """
        if node_id in self._registered:
            raise ConfigurationError(f"node id {node_id!r} already registered")
        self._registered[node_id] = node
        self._dirty = True

    def unregister(self, node_id: int) -> None:
        if self._registered.pop(node_id, None) is not None:
            self._dirty = True

    def _ids(self) -> list[int]:
        if self._dirty:
            self._sorted_ids = sorted(self._registered)
            self._dirty = False
        return self._sorted_ids

    def lookup(self, target: int, k: int = BUCKET_SIZE, exclude: int | None = None) -> list[int]:
        """Return up to ``k`` node ids closest to ``target`` (XOR metric)."""
        if k <= 0:
            return []
        ids = self._ids()
        want = k if exclude is None else k + 1
        out: list[int] = []
        _collect_nearest(
            ids, target, 0, len(ids), NODE_ID_BITS - 1, 0, out, want
        )
        if exclude is not None:
            try:
                out.remove(exclude)
            except ValueError:
                del out[k:]
        return out

    def sample_peers(
        self,
        own_id: int,
        count: int,
        rng: np.random.Generator,
    ) -> list[int]:
        """Pick ``count`` distinct peers via random-target lookups.

        This is the peer-selection behaviour that makes Ethereum's
        overlay geography-blind: each lookup target is uniform over the ID
        space, so the set of dialled peers is a uniform sample of the
        registered population.

        Each attempt draws one random target from ``rng``; a lookup whose
        nearest ids are all chosen adds no peer.  An exhausted population
        (every other registered id chosen) ends the lookups but not the
        draws: the remaining attempts' targets are drawn and discarded in
        one call, so ``rng`` ends where ``count * 20 + 100`` attempts
        would leave it and the caller's later draws are unchanged.
        """
        chosen: list[int] = []
        seen: set[int] = {own_id}
        others = len(self._registered) - (own_id in self._registered)
        attempts = 0
        max_attempts = count * 20 + 100
        while len(chosen) < count and attempts < max_attempts:
            if len(chosen) == others:
                skip_node_ids(rng, max_attempts - attempts)
                break
            attempts += 1
            target = random_node_id(rng)
            for node_id in self.lookup(target, k=BUCKET_SIZE, exclude=own_id):
                if node_id not in seen:
                    chosen.append(node_id)
                    seen.add(node_id)
                    break
        return chosen

    def node_for(self, node_id: int) -> object:
        """Return the registered node object for ``node_id``."""
        node = self._registered.get(node_id)
        if node is None:
            raise ConfigurationError(f"node id {node_id!r} is not registered")
        return node

    def all_ids(self) -> list[int]:
        return list(self._registered)
