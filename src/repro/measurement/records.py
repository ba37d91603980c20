"""Measurement log record schema.

These records are what the paper's instrumented Geth writes to its log
files: every incoming block message (direct or announcement), every block
import, first transaction receptions, and peer connections — each with a
local (NTP-disciplined, hence slightly wrong) timestamp.

Records are plain dataclasses with ``to_json``/``from_json`` round-trips
so a campaign can be persisted as JSONL and reloaded for offline analysis,
mirroring the paper's released data set.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping


@dataclass(frozen=True)
class BlockMessageRecord:
    """One incoming block-bearing message at a vantage.

    Attributes:
        vantage: Name of the measurement node.
        time: NTP-stamped local reception time (seconds).
        block_hash: Hash carried by the message.
        height: Advertised block height.
        direct: True for a full ``NewBlock`` push, False for a hash
            announcement (``NewBlockHashes`` entry).
        miner: Producing miner when known (direct pushes carry the header;
            announcements do not — empty string then).
        peer_id: Identifier of the sending peer.
    """

    vantage: str
    time: float
    block_hash: str
    height: int
    direct: bool
    miner: str
    peer_id: int


@dataclass(frozen=True)
class BlockImportRecord:
    """A block accepted into a vantage's local chain.

    Carries the full header summary the analyses need (miner, emptiness,
    uncle references, transaction hashes for commit tracking).
    """

    vantage: str
    time: float
    block_hash: str
    height: int
    parent_hash: str
    miner: str
    difficulty: float
    gas_used: int
    tx_hashes: tuple[str, ...]
    uncle_hashes: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return not self.tx_hashes


@dataclass(frozen=True)
class TxReceptionRecord:
    """First reception of a transaction at a vantage.

    Duplicate receptions are aggregated into
    :attr:`~repro.measurement.logger.MeasurementLog.tx_duplicate_count`
    rather than logged individually, to keep data sets compact.
    """

    vantage: str
    time: float
    tx_hash: str
    sender: str
    nonce: int
    peer_id: int


@dataclass(frozen=True)
class ConnectionRecord:
    """A peer connection established at a vantage."""

    vantage: str
    time: float
    peer_id: int
    inbound: bool


@dataclass(frozen=True)
class ChainBlockRecord:
    """Summary of one block in the end-of-campaign chain snapshot."""

    block_hash: str
    height: int
    parent_hash: str
    miner: str
    difficulty: float
    timestamp: float
    tx_hashes: tuple[str, ...]
    uncle_hashes: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return not self.tx_hashes


_RECORD_TYPES: dict[str, type] = {}
#: Field names of each record type, in declaration order.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _register(cls: type) -> type:
    _RECORD_TYPES[cls.__name__] = cls
    _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return cls


for _cls in (
    BlockMessageRecord,
    BlockImportRecord,
    TxReceptionRecord,
    ConnectionRecord,
    ChainBlockRecord,
):
    _register(_cls)


def record_to_json(record: Any) -> dict[str, Any]:
    """Serialise a record to a JSON-compatible dict with a type tag.

    Records are flat frozen dataclasses of scalars and string tuples, so
    a copy of the instance dict equals :func:`dataclasses.asdict`'s
    result, field order included, without its recursive deep copy
    (which was over half of a dataset save).
    """
    payload = dict(record.__dict__)
    payload["_type"] = type(record).__name__
    return payload


def record_from_json(payload: Mapping[str, Any]) -> Any:
    """Inverse of :func:`record_to_json`.

    Raises:
        KeyError: when the type tag is missing or unknown.
        TypeError: when a field is missing or not one of the record's.
    """
    return build_record(dict(payload), {})


def build_record(data: dict[str, Any], shared: dict[Any, Any]) -> Any:
    """Build the record a decoded JSON object describes, consuming ``data``.

    Each ``str`` or ``int`` value, and each hash in a hash list, becomes
    the first equal value ``shared`` holds, or is recorded there, so a
    value repeated across the records built with one ``shared`` table is
    one object.  The type test is exact: ``1``, ``1.0`` and ``True``
    hash equal, and a ``bool`` or ``float`` must keep its decoded type.

    The record is built positionally when ``data`` lists the record's
    fields in declaration order, as :func:`record_to_json` writes them,
    and by keyword otherwise, so a missing or extra field still raises.

    Raises:
        KeyError: when the type tag is missing or unknown.
        TypeError: when a field is missing or not one of the record's.
    """
    cls = _RECORD_TYPES[data.pop("_type")]
    share = shared.setdefault
    for name in ("tx_hashes", "uncle_hashes"):
        hashes = data.get(name)
        if isinstance(hashes, list):
            data[name] = tuple(
                [share(h, h) if type(h) is str or type(h) is int else h for h in hashes]
            )
    values = [
        share(v, v) if type(v) is str or type(v) is int else v
        for v in data.values()
    ]
    if tuple(data) == _FIELD_NAMES[cls]:
        return cls(*values)
    return cls(**dict(zip(data, values)))
