"""Tests for reading a saved dataset back.

``MeasurementDataset.load`` decodes record lines in chunks, builds each
record through its constructor and keeps one object per repeated value.
Its result must equal the per-line reference loader below, a corrupt
file must read as a cache miss, and a bool or float must never alias
the equal int.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import pytest

from repro.errors import DatasetError
from repro.experiments.cache import load_cached_dataset
from repro.measurement.dataset import ChainSnapshot, MeasurementDataset
from repro.measurement.records import (
    BlockImportRecord,
    BlockMessageRecord,
    ChainBlockRecord,
    ConnectionRecord,
    TxReceptionRecord,
    record_to_json,
)

#: What ``load_cached_dataset`` treats as a cache miss.
MISS = (DatasetError, OSError, ValueError, KeyError, TypeError)
CHUNK = 1024
RECORD_TYPES = {
    cls.__name__: cls
    for cls in (
        BlockMessageRecord,
        BlockImportRecord,
        TxReceptionRecord,
        ConnectionRecord,
        ChainBlockRecord,
    )
}
PEER = 2**255 + 12345
POOL = "Pööl-Ä"


def reference_load(path: Path) -> MeasurementDataset:
    """One ``json.loads`` and one keyword-built record per line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    dataset = MeasurementDataset(
        vantage_regions=dict(header["vantage_regions"]),
        default_peer_vantage=header.get("default_peer_vantage"),
        reference_vantage=header.get("reference_vantage", ""),
        measurement_start=float(header.get("measurement_start", 0.0)),
        tx_duplicate_counts={
            k: int(v) for k, v in header.get("tx_duplicate_counts", {}).items()
        },
        chain=ChainSnapshot(
            canonical_hashes=tuple(header.get("canonical_hashes", ())),
            head_hash=header.get("head_hash", ""),
        ),
    )
    lists: dict[type, list[Any]] = {
        BlockMessageRecord: dataset.block_messages,
        BlockImportRecord: dataset.block_imports,
        TxReceptionRecord: dataset.tx_receptions,
        ConnectionRecord: dataset.connections,
    }
    for line in lines[1:]:
        if not line.strip():
            continue
        data = json.loads(line)
        cls = RECORD_TYPES[data.pop("_type")]
        for name in ("tx_hashes", "uncle_hashes"):
            if isinstance(data.get(name), list):
                data[name] = tuple(data[name])
        record = cls(**data)
        if cls is ChainBlockRecord:
            dataset.chain.blocks[record.block_hash] = record
        else:
            lists[cls].append(record)
    return dataset


def every_kind_dataset() -> MeasurementDataset:
    """Each record kind, empty and non-empty hash tuples, non-ASCII
    strings and a 256-bit peer id."""
    blocks = {
        "0xg": ChainBlockRecord("0xg", 0, "", "", 1.0, 0.0, (), ()),
        "0xb1": ChainBlockRecord("0xb1", 1, "0xg", POOL, 2.5, 13.0, ("0xt1",), ()),
        "0xu": ChainBlockRecord("0xu", 1, "0xg", "矿池", 2.5, 13.5, (), ()),
        "0xb2": ChainBlockRecord("0xb2", 2, "0xb1", POOL, 2.5, 26.0, (), ("0xu",)),
    }
    return MeasurementDataset(
        vantage_regions={"WE": "WE", "東京": "EA", "WE-default": "WE"},
        default_peer_vantage="WE-default",
        reference_vantage="WE",
        measurement_start=10.5,
        block_messages=[
            BlockMessageRecord("WE", 13.1, "0xb1", 1, True, POOL, PEER),
            BlockMessageRecord("東京", 13.4, "0xb1", 1, False, "", PEER),
            BlockMessageRecord("WE", 26.2, "0xb2", 2, True, POOL, 7),
        ],
        block_imports=[
            BlockImportRecord(
                "WE", 13.2, "0xb1", 1, "0xg", POOL, 2.5, 42_000, ("0xt1", "0xt2"), ()
            ),
            BlockImportRecord("東京", 26.5, "0xb2", 2, "0xb1", "", 2.5, 0, (), ("0xu",)),
        ],
        tx_receptions=[
            TxReceptionRecord("WE", 5.0, "0xt1", "älice", 0, PEER),
            TxReceptionRecord("東京", 5.5, "0xt2", "bob", 3, 7),
        ],
        connections=[
            ConnectionRecord("WE", 0.0, PEER, True),
            ConnectionRecord("東京", 0.1, 7, False),
        ],
        chain=ChainSnapshot(
            blocks=blocks, canonical_hashes=("0xg", "0xb1", "0xb2"), head_hash="0xb2"
        ),
        tx_duplicate_counts={"WE": 4, "東京": 0, "WE-default": 1},
    )


def connections_dataset(count: int) -> MeasurementDataset:
    return MeasurementDataset(
        vantage_regions={"WE": "WE"},
        connections=[
            ConnectionRecord("WE", index / 8, index, index % 2 == 0)
            for index in range(count)
        ],
    )


def saved(dataset: MeasurementDataset, path: Path) -> Path:
    dataset.save(path)
    return path


# ---------------------------------------------------------------------- #
# Equivalence
# ---------------------------------------------------------------------- #


def test_small_dataset_loads_equal_to_reference(small_dataset, tmp_path):
    path = saved(small_dataset, tmp_path / "small.jsonl")
    loaded = MeasurementDataset.load(path)
    assert loaded == small_dataset
    assert loaded == reference_load(path)


def test_every_record_kind_loads_equal_to_reference(tmp_path):
    dataset = every_kind_dataset()
    path = saved(dataset, tmp_path / "kinds.jsonl")
    loaded = MeasurementDataset.load(path)
    assert loaded == dataset
    assert loaded == reference_load(path)
    assert loaded.block_messages[0].peer_id == PEER
    assert loaded.chain.blocks["0xg"].tx_hashes == ()
    assert type(loaded.chain.blocks["0xb1"].tx_hashes) is tuple


def test_reordered_keys_load_equal(tmp_path):
    dataset = every_kind_dataset()
    path = saved(dataset, tmp_path / "kinds.jsonl")
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    reordered = [
        json.dumps(dict(reversed(list(json.loads(line).items())))) for line in lines
    ]
    assert reordered != lines
    path.write_text("\n".join([header, *reordered]) + "\n", encoding="utf-8")
    assert MeasurementDataset.load(path) == dataset


@pytest.mark.parametrize(
    "count, blank_after",
    [(CHUNK, None), (CHUNK + 1, None), (CHUNK + 1, CHUNK), (2 * CHUNK, CHUNK - 1)],
    ids=["full-chunk", "one-over", "blank-at-edge", "blank-before-edge"],
)
def test_chunk_edges_load_equal(tmp_path, count, blank_after):
    dataset = connections_dataset(count)
    path = saved(dataset, tmp_path / "edges.jsonl")
    if blank_after is not None:
        header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(blank_after, "  \n")
        path.write_text("".join([header, *lines]), encoding="utf-8")
    loaded = MeasurementDataset.load(path)
    assert loaded == dataset
    assert loaded == reference_load(path)


# ---------------------------------------------------------------------- #
# One object per repeated value
# ---------------------------------------------------------------------- #


def _values(dataset: MeasurementDataset) -> list[Any]:
    records = [
        *dataset.block_messages,
        *dataset.block_imports,
        *dataset.tx_receptions,
        *dataset.connections,
        *dataset.chain.blocks.values(),
    ]
    values: list[Any] = []
    for record in records:
        for value in vars(record).values():
            values.extend(value if type(value) is tuple else [value])
    return values


def test_repeated_values_load_as_one_object(small_dataset, tmp_path):
    loaded = MeasurementDataset.load(saved(small_dataset, tmp_path / "s.jsonl"))
    for kind in (str, int):
        values = [value for value in _values(loaded) if type(value) is kind]
        assert len(values) > len(set(values))
        assert len({id(value) for value in values}) == len(set(values))
    recs = loaded.block_messages
    assert len({id(r.block_hash) for r in recs}) == len({r.block_hash for r in recs})


def test_bool_float_and_int_never_alias(tmp_path):
    dataset = MeasurementDataset(
        vantage_regions={"WE": "WE"},
        block_messages=[
            BlockMessageRecord("WE", 1.0, "0xa", 1, True, "A", 1),
            BlockMessageRecord("WE", 2.0, "0xb", True, True, "A", 1.0),
            BlockMessageRecord("WE", 3.0, "0xc", 1.0, False, "A", True),
            BlockMessageRecord("WE", 4.0, "0xd", 1, True, "A", 1),
        ],
    )
    path = saved(dataset, tmp_path / "types.jsonl")
    assert '"height": true' in path.read_text(encoding="utf-8")
    loaded = MeasurementDataset.load(path)
    assert [
        (type(r.height), type(r.peer_id)) for r in loaded.block_messages
    ] == [(int, int), (bool, float), (float, bool), (int, int)]
    resaved = saved(loaded, tmp_path / "resaved.jsonl")
    assert resaved.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------- #
# Corrupt files read as a cache miss
# ---------------------------------------------------------------------- #


def _record_line(**changes: Any) -> str:
    payload = record_to_json(ConnectionRecord("WE", 0.0, 7, True))
    payload.update(changes)
    return json.dumps({k: v for k, v in payload.items() if v is not None})


HEADER = json.dumps({"_type": "Header", "vantage_regions": {"WE": "WE"}})
GOOD = _record_line()

CORRUPT_RECORDS = {
    "non-json": "this is not json",
    "truncated-last-line": GOOD[: len(GOOD) // 2],
    "two-objects": GOOD + GOOD,
    "two-objects-comma": GOOD + ", " + GOOD,
    "stray-comma": GOOD + ",",
    "number": "5",
    "string": '"WE"',
    "list": "[1, 2]",
    "null": "null",
    "unknown-type": _record_line(_type="Bogus"),
    "missing-type": json.dumps({"vantage": "WE", "time": 0.0}),
    "missing-field": _record_line(inbound=None),
    "extra-field": _record_line(colour="red"),
}
NOT_OBJECTS = {"number", "string", "list", "null"}


@pytest.mark.parametrize("case", sorted(CORRUPT_RECORDS))
def test_corrupt_record_line_is_a_cache_miss(tmp_path, case):
    truncated = case == "truncated-last-line"
    lines = [HEADER, GOOD, GOOD, CORRUPT_RECORDS[case]] + ([] if truncated else [GOOD])
    path = tmp_path / "corrupt.jsonl"
    path.write_text("\n".join(lines) + ("" if truncated else "\n"))
    expected = DatasetError if case in NOT_OBJECTS else MISS
    with pytest.raises(expected):
        MeasurementDataset.load(path)
    assert load_cached_dataset(path) is None


CORRUPT_HEADERS = {
    "list": "[1, 2]",
    "number": "5",
    "null": "null",
    "duplicate-counts-list": json.dumps(
        {"_type": "Header", "vantage_regions": {}, "tx_duplicate_counts": [1]}
    ),
    "vantage-regions-list": json.dumps({"_type": "Header", "vantage_regions": []}),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_HEADERS))
def test_corrupt_header_raises_dataset_error(tmp_path, case):
    path = tmp_path / "header.jsonl"
    path.write_text(CORRUPT_HEADERS[case] + "\n" + GOOD + "\n")
    with pytest.raises(DatasetError):
        MeasurementDataset.load(path)
    assert load_cached_dataset(path) is None
