"""Tests for the discovery overlay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.p2p.discovery import BUCKET_SIZE, DiscoveryService
from repro.p2p.node_id import random_node_id, xor_distance


def _service(count: int) -> tuple[DiscoveryService, list[int]]:
    service = DiscoveryService()
    ids = list(range(1, count + 1))
    for node_id in ids:
        service.register(node_id, object())
    return service, ids


def test_register_and_len():
    service, _ = _service(5)
    assert len(service) == 5


def test_duplicate_registration_rejected():
    service, _ = _service(1)
    with pytest.raises(ConfigurationError):
        service.register(1, object())


def test_unregister_is_idempotent():
    service, _ = _service(2)
    service.unregister(1)
    service.unregister(1)
    assert len(service) == 1


def test_lookup_returns_closest_by_xor():
    service, ids = _service(16)
    target = 7
    result = service.lookup(target, k=4)
    expected = sorted(ids, key=lambda node_id: xor_distance(node_id, target))[:4]
    assert result == expected


def test_lookup_excludes_requested_id():
    service, _ = _service(8)
    result = service.lookup(3, k=8, exclude=3)
    assert 3 not in result


def test_sample_peers_never_returns_self():
    service, _ = _service(30)
    rng = np.random.default_rng(0)
    peers = service.sample_peers(own_id=5, count=10, rng=rng)
    assert 5 not in peers


def test_sample_peers_are_distinct():
    service, _ = _service(30)
    peers = service.sample_peers(1, 15, np.random.default_rng(1))
    assert len(peers) == len(set(peers))


def test_sample_peers_caps_at_population():
    service, _ = _service(5)
    peers = service.sample_peers(1, 50, np.random.default_rng(2))
    assert len(peers) <= 4  # everyone but self


def test_sample_peers_geography_blind():
    """Peer selection depends only on IDs — uniform over the population."""
    service = DiscoveryService()
    population = 60
    for node_id in range(1, population + 1):
        service.register(node_id, object())
    counts = {node_id: 0 for node_id in range(1, population + 1)}
    rng = np.random.default_rng(3)
    for _ in range(300):
        for peer in service.sample_peers(0, 8, rng):
            counts[peer] += 1
    values = np.array(list(counts.values()), dtype=float)
    # No node should be wildly over/under-selected.
    assert values.min() > values.mean() * 0.3
    assert values.max() < values.mean() * 3.0


def test_node_for_unknown_raises():
    service, _ = _service(1)
    with pytest.raises(ConfigurationError):
        service.node_for(99)


def test_all_ids_lists_registered():
    service, ids = _service(4)
    assert sorted(service.all_ids()) == ids


def test_lookup_matches_brute_force_on_random_ids():
    """The trie walk is exactly the sorted-by-distance order.

    Identifiers are unique, so XOR distances to any target are unique and
    the nearest-k set/order is unambiguous — the fast path must reproduce
    it bit for bit (peer sampling draws depend on it).
    """
    rng = np.random.default_rng(11)
    from repro.p2p.node_id import random_node_id

    service = DiscoveryService()
    ids = [random_node_id(rng) for _ in range(257)]
    for node_id in ids:
        service.register(node_id, object())
    for trial in range(50):
        target = random_node_id(rng) if trial % 2 else ids[trial]
        for k in (1, 3, 16, 257, 300):
            for exclude in (None, ids[trial]):
                expected = sorted(
                    (i for i in ids if i != exclude),
                    key=lambda i: xor_distance(i, target),
                )[:k]
                assert service.lookup(target, k=k, exclude=exclude) == expected


def test_lookup_tracks_churn():
    """Register/unregister after a lookup invalidates the sorted index."""
    service, ids = _service(32)
    target = 21
    before = service.lookup(target, k=32)
    service.unregister(ids[3])
    service.register(1000, object())
    after = service.lookup(target, k=40)
    assert ids[3] not in after
    assert 1000 in after
    assert len(after) == 32
    remaining = [i for i in ids if i != ids[3]] + [1000]
    assert after == sorted(remaining, key=lambda i: xor_distance(i, target))
    assert before != after


def test_lookup_zero_k_is_empty():
    service, _ = _service(4)
    assert service.lookup(2, k=0) == []


# --------------------------------------------------------------------- #
# Exhausted populations: early exit, same peers, same stream
# --------------------------------------------------------------------- #


def _reference_sample_peers(
    service: DiscoveryService, own_id: int, count: int, rng: np.random.Generator
) -> list[int]:
    """The loop without the early exit: every attempt looks up a target."""
    chosen: list[int] = []
    seen: set[int] = {own_id}
    attempts = 0
    max_attempts = count * 20 + 100
    while len(chosen) < count and attempts < max_attempts:
        attempts += 1
        target = random_node_id(rng)
        for node_id in service.lookup(target, k=BUCKET_SIZE, exclude=own_id):
            if node_id not in seen:
                chosen.append(node_id)
                seen.add(node_id)
                break
    return chosen


def _random_service(population: int, seed: int) -> tuple[DiscoveryService, list[int]]:
    rng = np.random.default_rng(seed)
    service = DiscoveryService()
    ids = [random_node_id(rng) for _ in range(population)]
    for node_id in ids:
        service.register(node_id, object())
    return service, ids


@pytest.mark.parametrize("own_registered", [True, False], ids=["own-in", "own-out"])
@pytest.mark.parametrize("count", [3, 13, 120, 500])
@pytest.mark.parametrize("population", [1, 2, 5, 56, 97, 400])
def test_sample_peers_matches_reference_loop_and_stream(
    population, count, own_registered
):
    service, ids = _random_service(population, seed=population)
    own_id = ids[0] if own_registered else random_node_id(np.random.default_rng(7))
    fast_rng = np.random.default_rng(1000 + count)
    slow_rng = np.random.default_rng(1000 + count)
    chosen = service.sample_peers(own_id, count, fast_rng)
    assert chosen == _reference_sample_peers(service, own_id, count, slow_rng)
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


def test_sample_peers_stops_looking_up_an_exhausted_population(monkeypatch):
    """An unlimited vantage (120 peers wanted) among 56 ids: once the 55
    others are chosen no lookup can add one, where the full loop ran all
    ``120 * 20 + 100 = 2500`` attempts."""
    service, ids = _random_service(56, seed=3)
    lookup = service.lookup
    calls = []

    def counting_lookup(*args, **kwargs):
        calls.append(args)
        return lookup(*args, **kwargs)

    monkeypatch.setattr(service, "lookup", counting_lookup)
    chosen = service.sample_peers(ids[0], 120, np.random.default_rng(4))
    assert sorted(chosen) == sorted(ids[1:])
    assert len(calls) < 2500 // 10
