"""P2P substrate: identifiers, discovery, wire messages, peers, gossip
policy and the latency-aware network fabric."""

from repro.p2p.degrees import DegreeDistribution
from repro.p2p.discovery import BUCKET_SIZE, DiscoveryService
from repro.p2p.gossip import (
    GossipConfig,
    direct_push_count,
    sample_targets,
    split_targets,
)
from repro.p2p.messages import (
    BlockBodiesMessage,
    BlockHeadersMessage,
    GetBlockBodiesMessage,
    GetBlockHeadersMessage,
    Message,
    NewBlockHashesMessage,
    NewBlockMessage,
    StatusMessage,
    TransactionsMessage,
)
from repro.p2p.network import Network, NetworkMember
from repro.p2p.node_id import (
    NODE_ID_BITS,
    bucket_index,
    format_node_id,
    random_node_id,
    xor_distance,
)
from repro.p2p.peer import MAX_KNOWN_BLOCKS, MAX_KNOWN_TXS, KnownCache, Peer

__all__ = [
    "BUCKET_SIZE",
    "BlockBodiesMessage",
    "BlockHeadersMessage",
    "DegreeDistribution",
    "DiscoveryService",
    "GetBlockBodiesMessage",
    "GetBlockHeadersMessage",
    "GossipConfig",
    "KnownCache",
    "MAX_KNOWN_BLOCKS",
    "MAX_KNOWN_TXS",
    "Message",
    "Network",
    "NetworkMember",
    "NewBlockHashesMessage",
    "NewBlockMessage",
    "NODE_ID_BITS",
    "Peer",
    "StatusMessage",
    "TransactionsMessage",
    "bucket_index",
    "direct_push_count",
    "format_node_id",
    "random_node_id",
    "sample_targets",
    "split_targets",
    "xor_distance",
]
