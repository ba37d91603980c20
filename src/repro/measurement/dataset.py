"""The measurement data set.

A :class:`MeasurementDataset` bundles everything a campaign produced:
per-vantage logs (flattened into typed record lists) and an
end-of-campaign :class:`ChainSnapshot` taken from a reference vantage —
the equivalent of the paper's released logs plus the Etherscan-style
chain context used to decide which observed blocks ended up canonical.

Datasets round-trip to JSONL (one record per line, type-tagged) so
campaigns can be archived and re-analysed offline, mirroring the paper's
open data release.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Optional

from repro.errors import DatasetError
from repro.measurement.logger import MeasurementLog
from repro.measurement.records import (
    BlockImportRecord,
    BlockMessageRecord,
    ChainBlockRecord,
    ConnectionRecord,
    TxReceptionRecord,
    build_record,
    record_to_json,
)

#: Record lines decoded per ``json.loads`` call by
#: :meth:`MeasurementDataset.load`: enough to amortise the call, few
#: enough that the chunk's text and decoded objects stay small.
_CHUNK_LINES = 1024


@dataclass
class ChainSnapshot:
    """Final chain state as seen from the reference vantage.

    Attributes:
        blocks: Every block the vantage accepted, keyed by hash.
        canonical_hashes: Hashes on the final main chain, genesis first.
        head_hash: Hash of the final canonical head.
    """

    blocks: dict[str, ChainBlockRecord] = field(default_factory=dict)
    canonical_hashes: tuple[str, ...] = ()
    head_hash: str = ""

    @property
    def canonical_blocks(self) -> list[ChainBlockRecord]:
        """Main-chain blocks in height order (genesis included)."""
        return [self.blocks[h] for h in self.canonical_hashes]

    @property
    def canonical_set(self) -> set[str]:
        return set(self.canonical_hashes)

    def referenced_uncles(self) -> set[str]:
        """Hashes referenced as uncles by any main-chain block."""
        referenced: set[str] = set()
        for block_hash in self.canonical_hashes:
            referenced.update(self.blocks[block_hash].uncle_hashes)
        return referenced

    def non_canonical_blocks(self) -> list[ChainBlockRecord]:
        """Observed blocks that did not end up on the main chain."""
        canonical = self.canonical_set
        return [
            block
            for block in self.blocks.values()
            if block.block_hash not in canonical
        ]


@dataclass
class MeasurementDataset:
    """Everything a measurement campaign produced.

    Attributes:
        vantage_regions: ``{vantage name: region value}``.
        default_peer_vantage: Name of the subsidiary 25-peer vantage used
            for the redundancy analysis (Table II), if deployed.
        reference_vantage: Vantage whose chain snapshot is authoritative.
        measurement_start: Simulated time at which the measurement window
            opened (after warm-up); records before it are kept but flagged.
        block_messages / block_imports / tx_receptions / connections:
            Flattened record lists across all vantages.
        chain: End-of-campaign chain snapshot.
        tx_duplicate_counts: Per-vantage duplicate-reception tallies.
    """

    vantage_regions: dict[str, str] = field(default_factory=dict)
    default_peer_vantage: Optional[str] = None
    reference_vantage: str = ""
    measurement_start: float = 0.0
    block_messages: list[BlockMessageRecord] = field(default_factory=list)
    block_imports: list[BlockImportRecord] = field(default_factory=list)
    tx_receptions: list[TxReceptionRecord] = field(default_factory=list)
    connections: list[ConnectionRecord] = field(default_factory=list)
    chain: ChainSnapshot = field(default_factory=ChainSnapshot)
    tx_duplicate_counts: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Assembly
    # ------------------------------------------------------------------ #

    def absorb_log(self, log: MeasurementLog) -> None:
        """Fold one vantage's log into the flattened record lists."""
        self.block_messages.extend(log.block_messages)
        self.block_imports.extend(log.block_imports)
        self.tx_receptions.extend(log.tx_receptions)
        self.connections.extend(log.connections)
        self.tx_duplicate_counts[log.vantage] = log.tx_duplicate_count

    @property
    def vantages(self) -> list[str]:
        """All vantage names, in insertion order."""
        return list(self.vantage_regions)

    @property
    def primary_vantages(self) -> list[str]:
        """Vantages participating in geographic analyses (excludes the
        subsidiary default-peer node, as in the paper)."""
        return [
            name for name in self.vantage_regions if name != self.default_peer_vantage
        ]

    def require_vantages(self, minimum: int = 2) -> None:
        """Raise :class:`DatasetError` unless enough vantages exist."""
        if len(self.primary_vantages) < minimum:
            raise DatasetError(
                f"analysis requires >= {minimum} vantages, "
                f"got {len(self.primary_vantages)}"
            )

    # ------------------------------------------------------------------ #
    # Persistence (JSONL, type-tagged records)
    # ------------------------------------------------------------------ #

    def save(self, path: str | Path) -> None:
        """Write the data set as JSONL (header line + one record/line).

        The write is atomic: records stream into a process-unique ``.tmp``
        sibling which is ``os.replace``-d over ``path`` only once complete.
        A concurrent reader therefore sees either the previous complete
        file or the new complete file, never a truncated one — the
        property the parallel campaign fleet's shared disk cache relies
        on (a killed writer leaves only a stale ``.tmp`` behind).
        """
        path = Path(path)
        header = {
            "_type": "Header",
            "vantage_regions": self.vantage_regions,
            "default_peer_vantage": self.default_peer_vantage,
            "reference_vantage": self.reference_vantage,
            "measurement_start": self.measurement_start,
            "tx_duplicate_counts": self.tx_duplicate_counts,
            "canonical_hashes": list(self.chain.canonical_hashes),
            "head_hash": self.chain.head_hash,
        }
        tmp_path = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with tmp_path.open("w", encoding="utf-8") as fh:
                fh.write(json.dumps(header) + "\n")
                for record in self._all_records():
                    fh.write(json.dumps(record_to_json(record)) + "\n")
            os.replace(tmp_path, path)
        finally:
            tmp_path.unlink(missing_ok=True)

    def _all_records(self) -> Iterable[object]:
        yield from self.block_messages
        yield from self.block_imports
        yield from self.tx_receptions
        yield from self.connections
        yield from self.chain.blocks.values()

    @classmethod
    def load(cls, path: str | Path) -> "MeasurementDataset":
        """Inverse of :meth:`save`.

        Record lines are decoded :data:`_CHUNK_LINES` at a time, and a
        value repeated across records (a vantage name, hash, miner or
        peer id) is loaded as one object (see
        :func:`~repro.measurement.records.build_record`).

        Raises:
            DatasetError: on a malformed file.
        """
        path = Path(path)
        if not path.exists():
            raise DatasetError(f"no dataset at {path}")
        dataset = cls()
        with path.open("r", encoding="utf-8") as fh:
            header_line = fh.readline()
            if not header_line:
                raise DatasetError(f"{path} is empty")
            header = json.loads(header_line)
            if not isinstance(header, dict) or header.get("_type") != "Header":
                raise DatasetError(f"{path} missing dataset header")
            vantage_regions = header["vantage_regions"]
            duplicate_counts = header.get("tx_duplicate_counts", {})
            if not isinstance(vantage_regions, dict) or not isinstance(
                duplicate_counts, dict
            ):
                raise DatasetError(f"{path} has a malformed dataset header")
            dataset.vantage_regions = dict(vantage_regions)
            dataset.default_peer_vantage = header.get("default_peer_vantage")
            dataset.reference_vantage = header.get("reference_vantage", "")
            dataset.measurement_start = float(header.get("measurement_start", 0.0))
            dataset.tx_duplicate_counts = {
                k: int(v) for k, v in duplicate_counts.items()
            }
            dataset.chain.canonical_hashes = tuple(header.get("canonical_hashes", ()))
            dataset.chain.head_hash = header.get("head_hash", "")
            shared: dict[Any, Any] = {}
            for payload in _decoded_lines(fh, path):
                if type(payload) is not dict:
                    raise DatasetError(f"{path} has a record that is not an object")
                record = build_record(payload, shared)
                if isinstance(record, BlockMessageRecord):
                    dataset.block_messages.append(record)
                elif isinstance(record, BlockImportRecord):
                    dataset.block_imports.append(record)
                elif isinstance(record, TxReceptionRecord):
                    dataset.tx_receptions.append(record)
                elif isinstance(record, ConnectionRecord):
                    dataset.connections.append(record)
                elif isinstance(record, ChainBlockRecord):
                    dataset.chain.blocks[record.block_hash] = record
                else:  # pragma: no cover - registry keeps this unreachable
                    raise DatasetError(f"unknown record type {type(record)!r}")
        return dataset


def _decoded_lines(fh: IO[str], path: Path) -> Iterator[Any]:
    """The value of each remaining non-blank line of ``fh``, decoded
    :data:`_CHUNK_LINES` lines per ``json.loads`` call.

    Raises:
        DatasetError: when a chunk does not decode to one value per line
            (two values on one line, or one spread over several).
    """
    non_blank = (line for line in fh if line.strip())
    while lines := list(islice(non_blank, _CHUNK_LINES)):
        values = json.loads("[" + ",".join(lines) + "]")
        if len(values) != len(lines):
            raise DatasetError(f"{path} has a line that is not one JSON value")
        yield from values
