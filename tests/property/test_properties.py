"""Property-based tests (hypothesis) on core data structures."""

from __future__ import annotations

import bisect
from typing import Any, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sequences import run_lengths
from repro.chain.block import Block, make_genesis
from repro.chain.forkchoice import BlockTree
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction
from repro.p2p.gossip import direct_push_count
from repro.p2p.peer import KnownCache
from repro.sim.engine import Simulator
from repro.sim.events import COMPACT_MIN_HEAP
from repro.stats.descriptive import Cdf, Summary


# ---------------------------------------------------------------------- #
# Event engine vs a sorted (time, priority, sequence) reference model
# ---------------------------------------------------------------------- #

# Few distinct delays and priorities, so time and priority ties are common.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5, 7.0])
_PRIORITIES = st.sampled_from([0, 100, 100, 200])
# What a handle does when it fires: push a follow-up event, or cancel a
# majority of the unfired handles — leaving corpses for the run loop to
# pop before a later push compacts the heap.
_REACTIONS = st.one_of(
    st.tuples(st.just("push"), _DELAYS, _PRIORITIES), st.just(("cancel_majority",))
)
_SCHEDULE = st.tuples(st.just("schedule"), _DELAYS, _PRIORITIES, _REACTIONS)
_CANCEL = st.tuples(st.just("cancel"), st.integers(0, 1_000))
_RAW = st.tuples(st.just("raw"), _DELAYS, _PRIORITIES)
_BATCH = st.tuples(st.just("batch"), st.lists(_DELAYS, max_size=6), _PRIORITIES)
_RUN = st.tuples(st.just("run"), _DELAYS)
_STREAMS = st.one_of(
    st.lists(st.one_of(_SCHEDULE, _CANCEL, _RAW, _BATCH, _RUN), max_size=60),
    # Handle-only streams start above COMPACT_MIN_HEAP, so after a majority
    # cancel inside a callback a later push compacts the heap mid-run().
    st.tuples(
        st.lists(
            _SCHEDULE, min_size=COMPACT_MIN_HEAP + 1, max_size=2 * COMPACT_MIN_HEAP
        ),
        st.lists(st.one_of(_SCHEDULE, _CANCEL, _RUN), max_size=40),
    ).map(lambda parts: parts[0] + parts[1]),
)


class _Replay:
    """Applies one op stream and the reactions of the handles it fires.

    Subclasses provide ``now``, ``pending``, ``schedule``, ``cancel``,
    ``schedule_raw``, ``schedule_batch`` and ``run``.  A fired handle
    logs the live-event count it sees, so accounting drift shows up
    inside ``run()``, not only after it.
    """

    def __init__(self) -> None:
        self.log: list[Any] = []
        #: key -> handle, for every scheduled handle not yet fired or cancelled
        self.unfired: dict[int, Any] = {}
        self._keys = 0

    def next_key(self) -> int:
        self._keys += 1
        return self._keys

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "schedule":
            self.schedule(self.now + op[1], op[2], op[3])
        elif kind == "cancel":
            keys = sorted(self.unfired)
            if keys:
                self.cancel(keys[op[1] % len(keys)])
        elif kind == "raw":
            self.schedule_raw(self.now + op[1], op[2])
        elif kind == "batch":
            self.schedule_batch([self.now + delay for delay in op[1]], op[2])
        else:
            self.run(self.now + op[1])

    def fired(self, key: int, reaction: Optional[tuple]) -> None:
        del self.unfired[key]
        self.log.append((key, self.pending))
        if reaction is None:
            return
        if reaction[0] == "push":
            self.schedule(self.now + reaction[1], reaction[2], None)
        else:
            for i, victim in enumerate(sorted(self.unfired)):
                if i % 3:
                    self.cancel(victim)


class _Raw:
    cancelled = False

    def __init__(self, log: list[Any], key: int) -> None:
        self.log, self.key = log, key

    def callback(self) -> None:
        self.log.append(self.key)


class _Batch(_Raw):
    profile_label = "batch"

    def fire(self, index: int) -> None:
        self.log.append((self.key, index))


class _EngineReplay(_Replay):
    def __init__(self, profiled: bool) -> None:
        super().__init__()
        self.sim = Simulator(profile=profiled)

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def pending(self) -> int:
        return self.sim.pending_events

    def schedule(self, time: float, priority: int, reaction: Optional[tuple]) -> None:
        key = self.next_key()
        self.unfired[key] = self.sim.schedule(
            time, lambda: self.fired(key, reaction), priority
        )

    def cancel(self, key: int) -> None:
        self.unfired.pop(key).cancel()

    def schedule_raw(self, time: float, priority: int) -> None:
        self.sim.schedule_raw(time, _Raw(self.log, self.next_key()), priority)

    def schedule_batch(self, times: list[float], priority: int) -> None:
        self.sim.schedule_batch(times, _Batch(self.log, self.next_key()), priority)

    def run(self, until: Optional[float]) -> None:
        self.sim.run(until=until)


class _ModelReplay(_Replay):
    """The reference: a sorted list of ``(time, priority, sequence, payload)``."""

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.entries: list[tuple] = []
        self.pushed = 0  # also the next sequence number

    @property
    def pending(self) -> int:
        return len(self.entries)

    def _push(self, time: float, priority: int, payload: tuple) -> tuple:
        entry = (time, priority, self.pushed, payload)
        self.pushed += 1
        bisect.insort(self.entries, entry)
        return entry

    def schedule(self, time: float, priority: int, reaction: Optional[tuple]) -> None:
        key = self.next_key()
        self.unfired[key] = self._push(time, priority, ("handle", key, reaction))

    def cancel(self, key: int) -> None:
        self.entries.remove(self.unfired.pop(key))

    def schedule_raw(self, time: float, priority: int) -> None:
        self._push(time, priority, ("log", self.next_key()))

    def schedule_batch(self, times: list[float], priority: int) -> None:
        key = self.next_key()
        for index, time in enumerate(times):
            self._push(time, priority, ("log", (key, index)))

    def run(self, until: Optional[float]) -> None:
        while self.entries and (until is None or self.entries[0][0] <= until):
            time, _, _, payload = self.entries.pop(0)
            self.now = time
            if payload[0] == "handle":
                self.fired(payload[1], payload[2])
            else:
                self.log.append(payload[1])
        if until is not None:
            self.now = until


def _assert_agree(engine: _EngineReplay, model: _ModelReplay) -> None:
    assert engine.log == model.log
    assert engine.sim.now == model.now
    assert engine.sim.events_processed == len(model.log)
    assert engine.pending == model.pending
    stats = engine.sim.queue_stats()
    assert (stats["live"], stats["pushed_total"]) == (model.pending, model.pushed)


@settings(max_examples=60, deadline=None)
@given(stream=_STREAMS, profiled=st.booleans())
def test_engine_matches_sorted_reference_model(stream, profiled):
    """The engine fires what a sorted ``(time, priority, sequence)`` list
    would, and its live-event accounting stays exact — across lazy
    cancellation, corpses popped by the run loop, and heap compactions
    triggered by pushes inside callbacks while ``run()`` is draining."""
    engine, model = _EngineReplay(profiled), _ModelReplay()
    for op in stream:
        engine.apply(op)
        model.apply(op)
        if op[0] == "run":
            _assert_agree(engine, model)
    engine.run(None)
    model.run(None)
    _assert_agree(engine, model)
    assert engine.pending == 0


# ---------------------------------------------------------------------- #
# Mempool invariants
# ---------------------------------------------------------------------- #


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 8)),
        min_size=1,
        max_size=60,
    )
)
def test_mempool_pending_is_always_gapless_per_sender(arrivals):
    """Whatever the arrival order, the pending region must hold a gapless
    nonce prefix per sender — the invariant miners rely on."""
    pool = Mempool()
    for sender_index, nonce in arrivals:
        pool.add(Transaction(f"s{sender_index}", nonce))
    by_sender: dict[str, list[int]] = {}
    for tx in pool.pending.values():
        by_sender.setdefault(tx.sender, []).append(tx.nonce)
    for nonces in by_sender.values():
        nonces.sort()
        assert nonces == list(range(nonces[0], nonces[0] + len(nonces)))
        assert nonces[0] == 0  # nothing executed yet, so prefixes start at 0


@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 6), st.floats(0.1, 10)),
        min_size=1,
        max_size=40,
    ),
    st.integers(21_000, 400_000),
)
def test_mempool_selection_respects_gas_limit_and_nonce_order(arrivals, gas_limit):
    pool = Mempool()
    for sender_index, nonce, price in arrivals:
        pool.add(Transaction(f"s{sender_index}", nonce, gas_price=price))
    chosen = pool.select(gas_limit=gas_limit)
    assert sum(tx.gas_used for tx in chosen) <= gas_limit
    seen: dict[str, int] = {}
    for tx in chosen:
        expected = seen.get(tx.sender, 0)
        assert tx.nonce == expected
        seen[tx.sender] = expected + 1


# ---------------------------------------------------------------------- #
# Fork choice invariants
# ---------------------------------------------------------------------- #


@given(st.lists(st.tuples(st.integers(0, 4), st.floats(1, 100)), max_size=30))
def test_block_tree_head_has_maximal_total_difficulty(extensions):
    """After arbitrary tree growth, the head is a heaviest leaf and the
    canonical chain is parent-linked from genesis."""
    tree = BlockTree(make_genesis())
    blocks = [tree.genesis]
    for salt, (parent_index, difficulty) in enumerate(extensions):
        parent = blocks[parent_index % len(blocks)]
        block = Block(
            height=parent.height + 1,
            parent_hash=parent.block_hash,
            miner="M",
            difficulty=float(difficulty),
            timestamp=parent.timestamp + 1.0,
            salt=salt,
        )
        tree.add(block)
        blocks.append(block)
    head_td = tree.total_difficulty(tree.head.block_hash)
    for block in blocks:
        assert tree.total_difficulty(block.block_hash) <= head_td + 1e-9
    chain = tree.canonical_chain()
    for parent, child in zip(chain, chain[1:]):
        assert child.parent_hash == parent.block_hash
        assert child.height == parent.height + 1


# ---------------------------------------------------------------------- #
# Known cache
# ---------------------------------------------------------------------- #


@given(st.lists(st.text(min_size=1, max_size=4), max_size=100), st.integers(1, 20))
def test_known_cache_never_exceeds_capacity(items, capacity):
    cache = KnownCache(capacity)
    for item in items:
        cache.add(item)
    assert len(cache) <= capacity
    # The most recently added item is always retained.
    if items:
        assert items[-1] in cache


# ---------------------------------------------------------------------- #
# Gossip policy
# ---------------------------------------------------------------------- #


@given(st.integers(0, 10_000))
def test_direct_push_count_bounds(peer_count):
    count = direct_push_count(peer_count)
    assert 0 <= count <= peer_count
    if peer_count > 0:
        assert count >= 1
        assert (count - 1) ** 2 < peer_count  # ceil(sqrt) tightness


# ---------------------------------------------------------------------- #
# Run lengths
# ---------------------------------------------------------------------- #


@given(st.lists(st.sampled_from(["A", "B", "C"]), max_size=200))
def test_run_lengths_partition_the_sequence(sequence):
    runs = run_lengths(sequence)
    assert sum(sum(lengths) for lengths in runs.values()) == len(sequence)
    for miner, lengths in runs.items():
        assert all(length >= 1 for length in lengths)
        assert sum(lengths) == sequence.count(miner)


# ---------------------------------------------------------------------- #
# Descriptive statistics
# ---------------------------------------------------------------------- #


@given(
    st.lists(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
def test_summary_orderings(values):
    summary = Summary.of(values)
    assert summary.median <= summary.p90 + 1e-9
    assert summary.p90 <= summary.p95 + 1e-9
    assert summary.p95 <= summary.p99 + 1e-9
    assert summary.p99 <= summary.maximum + 1e-9
    assert min(values) - 1e-9 <= summary.mean <= summary.maximum + 1e-9


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=50)
def test_cdf_is_a_distribution(values):
    cdf = Cdf.of(values)
    assert np.all(np.diff(cdf.values) >= 0)
    assert np.all(np.diff(cdf.fractions) >= 0)
    assert cdf.fractions[-1] == 1.0
    assert cdf.fraction_at(float(np.max(cdf.values))) == 1.0


# ---------------------------------------------------------------------- #
# Censorship windows
# ---------------------------------------------------------------------- #


@given(st.lists(st.sampled_from(["A", "B", "C"]), min_size=2, max_size=100))
def test_censorship_windows_partition_runs(miners):
    """Window lengths must equal the >=2 runs of the miner sequence."""
    from helpers import DatasetBuilder

    from repro.analysis.censorship import censorship_windows

    builder = DatasetBuilder(measurement_start=1.0)
    builder.add_main_chain(miners)
    result = censorship_windows(builder.build(), min_length=2)
    expected_runs = [
        lengths
        for pool, lengths_list in run_lengths(miners).items()
        for lengths in lengths_list
        if lengths >= 2
    ]
    assert sorted(w.length for w in result.windows) == sorted(expected_runs)
    for window in result.windows:
        assert window.duration >= 0


# ---------------------------------------------------------------------- #
# Streak theory vs lottery simulation
# ---------------------------------------------------------------------- #


@given(
    st.floats(min_value=0.15, max_value=0.45),
    st.integers(min_value=4, max_value=7),
)
@settings(max_examples=10, deadline=None)
def test_streak_theory_matches_lottery(share, length):
    from repro.analysis.sequences import expected_streaks, simulate_history

    blocks = 300_000
    result = simulate_history(blocks, {"P": share}, seed=9, lengths=(length,))
    expected = expected_streaks(share, length, blocks)
    observed = result.counts_at_least[length]
    # Poisson-ish tolerance around the closed form.
    assert abs(observed - expected) < 6 * (expected**0.5 + 1)
