"""devp2p-style node identifiers.

Ethereum nodes identify themselves with a 512-bit public key; the
discovery overlay orders nodes by the XOR distance of (hashes of) these
identifiers.  We model identifiers as 256-bit integers drawn uniformly at
random — the property the study relies on (§III-B1) is that identifier
distance is *independent of geography*, which uniform random IDs give us.
"""

from __future__ import annotations

import numpy as np

#: Bit length of a node identifier.
NODE_ID_BITS = 256
#: 64-bit words per identifier; numpy's integers() caps at 64 bits.
_ID_WORDS = NODE_ID_BITS // 64


def random_node_id(rng: np.random.Generator) -> int:
    """Draw a uniform 256-bit node identifier."""
    words = rng.integers(0, 2**64, size=_ID_WORDS, dtype=np.uint64)
    value = 0
    for word in words:
        value = (value << 64) | int(word)
    return value


def skip_node_ids(rng: np.random.Generator, count: int) -> None:
    """Advance ``rng`` exactly as ``count`` :func:`random_node_id` calls do.

    numpy draws a full-range ``uint64`` as one raw word, without
    rejection, so one draw of ``count`` ids' words consumes the same
    stream as ``count`` separate calls.
    """
    rng.integers(0, 2**64, size=_ID_WORDS * count, dtype=np.uint64)


def xor_distance(a: int, b: int) -> int:
    """Kademlia XOR distance between two identifiers."""
    return a ^ b


def bucket_index(a: int, b: int) -> int:
    """Index of the Kademlia bucket in which ``b`` falls relative to ``a``.

    Equal IDs map to bucket 0 by convention (they never coexist in
    practice: IDs are unique per network).
    """
    distance = xor_distance(a, b)
    if distance == 0:
        return 0
    return distance.bit_length() - 1


def format_node_id(node_id: int) -> str:
    """Short hex rendering for logs."""
    return f"0x{node_id:064x}"[:12] + "…"
