"""Tests for record serialisation."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.measurement.records import (
    BlockImportRecord,
    BlockMessageRecord,
    ChainBlockRecord,
    ConnectionRecord,
    TxReceptionRecord,
    record_from_json,
    record_to_json,
)

SAMPLES = [
    BlockMessageRecord("WE", 1.5, "0xb", 7, True, "PoolA", 42),
    BlockImportRecord(
        "WE", 2.0, "0xb", 7, "0xp", "PoolA", 100.0, 42_000, ("0xt1", "0xt2"), ("0xu",)
    ),
    TxReceptionRecord("EA", 0.5, "0xt1", "alice", 3, 42),
    ConnectionRecord("NA", 0.0, 42, True),
    ChainBlockRecord("0xb", 7, "0xp", "PoolA", 100.0, 93.1, ("0xt1",), ()),
]


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_json_round_trip(record):
    assert record_from_json(record_to_json(record)) == record


def test_json_payload_is_type_tagged():
    payload = record_to_json(SAMPLES[0])
    assert payload["_type"] == "BlockMessageRecord"


def test_unknown_type_rejected():
    with pytest.raises(KeyError):
        record_from_json({"_type": "Bogus"})


def test_missing_type_rejected():
    with pytest.raises(KeyError):
        record_from_json({"vantage": "WE"})


def test_tuples_survive_json_lists():
    payload = record_to_json(SAMPLES[1])
    payload["tx_hashes"] = list(payload["tx_hashes"])
    restored = record_from_json(payload)
    assert restored.tx_hashes == ("0xt1", "0xt2")


def test_import_record_is_empty_property():
    empty = BlockImportRecord("WE", 1.0, "0xb", 1, "0xp", "A", 1.0, 0, (), ())
    full = BlockImportRecord("WE", 1.0, "0xb", 1, "0xp", "A", 1.0, 21_000, ("0xt",), ())
    assert empty.is_empty
    assert not full.is_empty


def test_chain_record_is_empty_property():
    assert ChainBlockRecord("0xb", 1, "0xp", "A", 1.0, 1.0, (), ()).is_empty


def _asdict_payload(record):
    """The ``dataclasses.asdict`` serialisation, kept as the reference."""
    payload = asdict(record)
    payload["_type"] = type(record).__name__
    return payload


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_payload_equals_asdict_reference(record):
    payload = record_to_json(record)
    reference = _asdict_payload(record)
    assert payload == reference
    # Key order fixes the JSONL bytes.
    assert json.dumps(payload) == json.dumps(reference)


def test_payload_does_not_alias_the_record():
    record = SAMPLES[1]
    payload = record_to_json(record)
    payload["height"] = -1
    assert record.height == 7
    assert "_type" not in vars(record)


def test_saved_dataset_bytes_equal_asdict_writer(small_dataset, tmp_path):
    path = tmp_path / "dataset.jsonl"
    small_dataset.save(path)
    _header, _, body = path.read_bytes().partition(b"\n")
    records = [
        *small_dataset.block_messages,
        *small_dataset.block_imports,
        *small_dataset.tx_receptions,
        *small_dataset.connections,
        *small_dataset.chain.blocks.values(),
    ]
    assert {type(record) for record in records} == {
        type(sample) for sample in SAMPLES
    }
    reference = "".join(
        json.dumps(_asdict_payload(record)) + "\n" for record in records
    )
    assert body == reference.encode("utf-8")
