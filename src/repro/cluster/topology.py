"""Network topology model: racks and a two-tier leaf–spine fabric.

The campus cluster wires every node to its rack's top-of-rack (leaf) switch,
and every leaf to a spine layer, giving three locality classes that the
placement policies and communication models care about:

* ``SAME_NODE`` — peers communicate over NVLink/PCIe inside one server;
* ``SAME_RACK`` — one leaf hop, full NIC bandwidth;
* ``CROSS_RACK`` — through the spine, where the leaf uplinks are
  oversubscribed by a configurable factor.

Every query is answered in O(1) from precomputed rack-membership maps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import ConfigError, UnknownNodeError
from ..ids import NodeId, RackId


class Locality(enum.IntEnum):
    """Distance class between two placement endpoints (ordered near→far)."""

    SAME_NODE = 0
    SAME_RACK = 1
    CROSS_RACK = 2


@dataclass(frozen=True)
class FabricSpec:
    """Parameters of the leaf–spine fabric.

    Attributes:
        node_uplink_gbps: Node NIC → leaf link bandwidth.
        leaf_uplink_gbps: Aggregate leaf → spine bandwidth per rack.
        oversubscription: Ratio of rack ingress capacity to leaf uplink
            capacity; >1 means cross-rack traffic can congest.
        latency_us_same_rack: One-way latency for intra-rack messages.
        latency_us_cross_rack: One-way latency through the spine.
    """

    node_uplink_gbps: float = 100.0
    leaf_uplink_gbps: float = 400.0
    oversubscription: float = 2.0
    latency_us_same_rack: float = 2.0
    latency_us_cross_rack: float = 6.0

    def __post_init__(self) -> None:
        for name in ("node_uplink_gbps", "leaf_uplink_gbps", "oversubscription"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


@dataclass
class Topology:
    """Rack membership plus fabric bandwidth queries.

    Build with :meth:`Topology.build` from a ``{rack_id: [node_ids]}``
    mapping; nodes may not repeat across racks.
    """

    fabric: FabricSpec
    _rack_of: dict[NodeId, RackId] = field(default_factory=dict)
    _racks: dict[RackId, tuple[NodeId, ...]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        racks: dict[RackId, list[NodeId]],
        fabric: FabricSpec | None = None,
    ) -> "Topology":
        fabric = fabric or FabricSpec()
        topo = cls(fabric=fabric)
        seen: set[NodeId] = set()
        for rack_id, node_ids in racks.items():
            if not node_ids:
                raise ConfigError(f"rack {rack_id} has no nodes")
            duplicates = seen & set(node_ids)
            if duplicates:
                raise ConfigError(
                    f"nodes appear in multiple racks: {sorted(duplicates)}"
                )
            seen |= set(node_ids)
            topo._racks[rack_id] = tuple(node_ids)
            for node in node_ids:
                topo._rack_of[node] = rack_id
        return topo

    # -- membership ----------------------------------------------------------

    @property
    def rack_ids(self) -> tuple[RackId, ...]:
        return tuple(self._racks)

    @property
    def node_ids(self) -> tuple[NodeId, ...]:
        return tuple(self._rack_of)

    def rack_of(self, node: NodeId) -> RackId:
        try:
            return self._rack_of[node]
        except KeyError:
            raise UnknownNodeError(f"node {node} is not in the topology") from None

    def nodes_in_rack(self, rack: RackId) -> tuple[NodeId, ...]:
        try:
            return self._racks[rack]
        except KeyError:
            raise ConfigError(f"unknown rack {rack}") from None

    # -- locality ------------------------------------------------------------

    def locality(self, a: NodeId, b: NodeId) -> Locality:
        """Distance class between two nodes."""
        if a == b:
            # Both endpoints are valid node ids; validate before the shortcut.
            self.rack_of(a)
            return Locality.SAME_NODE
        if self.rack_of(a) == self.rack_of(b):
            return Locality.SAME_RACK
        return Locality.CROSS_RACK

    def bandwidth_gbps(self, a: NodeId, b: NodeId) -> float:
        """Bottleneck bandwidth of the path between two nodes.

        Same-node pairs return ``inf`` — intra-node bandwidth is a property
        of the GPU interconnect, handled by the communication models.
        """
        loc = self.locality(a, b)
        if loc is Locality.SAME_NODE:
            return float("inf")
        if loc is Locality.SAME_RACK:
            return self.fabric.node_uplink_gbps
        return min(
            self.fabric.node_uplink_gbps,
            self.fabric.leaf_uplink_gbps / self.fabric.oversubscription,
        )

    def latency_us(self, a: NodeId, b: NodeId) -> float:
        loc = self.locality(a, b)
        if loc is Locality.SAME_NODE:
            return 0.5
        if loc is Locality.SAME_RACK:
            return self.fabric.latency_us_same_rack
        return self.fabric.latency_us_cross_rack

    def hops(self, a: NodeId, b: NodeId) -> int:
        """Switch hops between two nodes (0 same node, 2 same rack, 4 cross)."""
        loc = self.locality(a, b)
        return {Locality.SAME_NODE: 0, Locality.SAME_RACK: 2, Locality.CROSS_RACK: 4}[loc]

    # -- placement spread ------------------------------------------------------

    def spread(self, nodes: list[NodeId]) -> Locality:
        """Worst locality class among a set of placement nodes.

        A single-node placement is ``SAME_NODE``; all nodes in one rack is
        ``SAME_RACK``; otherwise ``CROSS_RACK``.  Used by the execution-layer
        slowdown model and the F9 locality experiment.
        """
        if not nodes:
            raise ConfigError("spread of an empty placement is undefined")
        unique = set(nodes)
        if len(unique) == 1:
            self.rack_of(next(iter(unique)))
            return Locality.SAME_NODE
        racks = {self.rack_of(n) for n in nodes}
        return Locality.SAME_RACK if len(racks) == 1 else Locality.CROSS_RACK

    def racks_spanned(self, nodes: list[NodeId]) -> int:
        return len({self.rack_of(n) for n in nodes})
