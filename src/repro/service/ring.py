"""Consistent-hash ring for shard placement in the gateway tier.

The gateway places each registered tensor on backend shards by hashing
its routing key — ``tensor_id|q=..|P=..``, the same ``(tensor, q, P)``
parameterization the cost model prices — onto a ring of virtual nodes.
Consistent hashing is what makes membership changes cheap: when a
shard joins or leaves, only the keys whose arc it owned move (expected
``K/N`` of ``K`` keys across ``N`` shards), so a drain or a crash
re-registers a fraction of the resident tensors instead of reshuffling
the whole fleet.

Hashes are :func:`hashlib.blake2b` (8-byte digests), so placement is
stable across processes and Python invocations — a gateway restart
computes the same ring as the one before it, and a test can predict
where a tensor lands.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.service.representations import order_suffix

#: Virtual nodes per backend: enough for ±20-ish% load spread at small
#: fleet sizes without making membership changes slow.
DEFAULT_VNODES = 64


def stable_hash(key: str) -> int:
    """64-bit position of ``key`` on the ring (process-independent)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Sorted ring of virtual nodes mapping keys to backend names.

    Not thread-safe by itself — the gateway serializes membership
    changes and lookups under its own state lock.
    """

    def __init__(self, vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        #: Sorted virtual-node positions and the parallel owner list.
        self._points: List[int] = []
        self._owners: List[str] = []
        self._nodes: Dict[str, List[int]] = {}

    # -- membership ------------------------------------------------------------

    def add(self, node: str) -> None:
        """Add a backend's virtual nodes (idempotent)."""
        if node in self._nodes:
            return
        points = []
        for replica in range(self.vnodes):
            point = stable_hash(f"{node}#{replica}")
            index = bisect.bisect_left(self._points, point)
            # Collisions across distinct nodes are ~2^-64 per pair;
            # skip rather than silently shadow an existing owner.
            if (
                index < len(self._points)
                and self._points[index] == point
            ):
                continue
            self._points.insert(index, point)
            self._owners.insert(index, node)
            points.append(point)
        self._nodes[node] = points

    def remove(self, node: str, allow_empty: bool = False) -> None:
        """Remove a backend's virtual nodes (idempotent for nodes not
        on the ring).

        Removing the *last* member raises a typed
        :class:`~repro.errors.ConfigurationError` unless
        ``allow_empty=True``: an empty ring routes nothing, and a
        planned removal (a drain) should place a successor first. The
        gateway's crash path passes ``allow_empty=True`` — a dead last
        shard is a fact, not a configuration choice.
        """
        if (
            not allow_empty
            and node in self._nodes
            and len(self._nodes) == 1
        ):
            raise ConfigurationError(
                f"removing {node!r} would empty the ring; add a"
                " replacement backend first (or pass allow_empty=True"
                " to accept routing nothing)"
            )
        points = self._nodes.pop(node, None)
        if points is None:
            return
        for point in points:
            index = bisect.bisect_left(self._points, point)
            if (
                index < len(self._points)
                and self._points[index] == point
                and self._owners[index] == node
            ):
                del self._points[index]
                del self._owners[index]

    def nodes(self) -> List[str]:
        """Current members, sorted by name."""
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # -- lookup ----------------------------------------------------------------

    def node_for(self, key: str) -> Optional[str]:
        """The backend owning ``key`` (None on an empty ring)."""
        owners = self.nodes_for(key, count=1)
        return owners[0] if owners else None

    def nodes_for(self, key: str, count: int) -> List[str]:
        """The first ``count`` *distinct* backends clockwise from
        ``key`` — position 0 is the primary, the rest are replica
        targets in failover order. Returns fewer when the ring has
        fewer members."""
        if not self._points or count < 1:
            return []
        start = bisect.bisect_right(self._points, stable_hash(key))
        owners: List[str] = []
        for step in range(len(self._points)):
            owner = self._owners[(start + step) % len(self._points)]
            if owner not in owners:
                owners.append(owner)
                if len(owners) == count:
                    break
        return owners

    # -- introspection ---------------------------------------------------------

    def describe(self) -> Dict:
        """Stats-endpoint view: members and virtual-node counts."""
        return {
            "nodes": self.nodes(),
            "vnodes_per_node": self.vnodes,
            "points": len(self._points),
        }

    def spread(self, keys: List[str]) -> Dict[str, int]:
        """How many of ``keys`` each member owns (balance diagnostics)."""
        counts: Dict[str, int] = {node: 0 for node in self._nodes}
        for key in keys:
            owner = self.node_for(key)
            if owner is not None:
                counts[owner] += 1
        return counts


def ring_key(tensor_id: str, q: int, P: int, order: int = 3) -> str:
    """Routing key of one registered tensor: the ``(tensor, q, P)``
    parameterization the paper's cost model prices.

    Order-3 keys keep their historical form (placement stability across
    upgrades); order-m tensors append an ``|order=`` component so the
    same tensor id registered at different orders lands independently.
    """
    return f"{tensor_id}|q={q}|P={P}" + order_suffix(order, "|")


def placement_moves(
    before: Dict[str, Tuple[str, ...]], after: Dict[str, Tuple[str, ...]]
) -> int:
    """Count owner assignments that changed between two placements
    (``key -> owner tuple``) — the rebalance cost of a membership
    change."""
    moves = 0
    for key, owners in after.items():
        previous = before.get(key, ())
        moves += len(set(owners) - set(previous))
    return moves
