"""The benchmark's own tests; they run in seconds, without a workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from catalog import END_TO_END, NAME_PATTERN, PER_LAYER  # noqa: E402
from layers import (  # noqa: E402
    ENTRY_POINTS,
    EntryPoint,
    InventoryError,
    _resolve,
    installed,
    inventory_failures,
    layer_metrics,
)
from ledger import Ledger, span_cost_us  # noqa: E402
from run import Judge, metric_units, phase_deadline, result_line  # noqa: E402
from workloads import MIN_CYCLES, REPS, _cycles, rep_seeds  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_self_time_is_total_minus_children():
    clock = FakeClock()
    ledger = Ledger(clock)

    def inner() -> None:
        clock.now += 2.0

    wrapped_inner = ledger.wrap("inner", inner)

    def outer() -> None:
        clock.now += 1.0
        wrapped_inner()
        wrapped_inner()
        clock.now += 0.5

    ledger.wrap("outer", outer)()
    assert ledger.edges[("outer", "")] == [1, 5.5, 1.5, 0]
    assert ledger.edges[("inner", "outer")] == [2, 4.0, 4.0, 0]
    assert ledger.self_time("outer") == ledger.total("outer") - ledger.total("inner")
    assert ledger.calls("inner", parent="outer") == 2


def test_raising_callee_still_closes_its_span():
    clock = FakeClock()
    ledger = Ledger(clock)

    def failing() -> None:
        clock.now += 3.0
        raise ValueError("boom")

    wrapped_failing = ledger.wrap("failing", failing)

    def outer() -> None:
        clock.now += 1.0
        with pytest.raises(ValueError):
            wrapped_failing()

    ledger.wrap("outer", outer)()
    assert ledger.edges[("failing", "outer")] == [1, 3.0, 3.0, 0]
    assert ledger.edges[("outer", "")] == [1, 4.0, 1.0, 0]
    assert ledger._stack == []


def test_units_and_peaks_accumulate():
    ledger = Ledger()

    def units(args, result):
        ledger.peak("depth", len(args[0]))
        return len(args[0])

    push = ledger.wrap("push", lambda items: None, units)
    push([1, 2, 3])
    push([1])
    assert ledger.units("push") == 4
    assert ledger.peaks["depth"] == 3


def test_span_cost_is_positive_and_small():
    assert 0.0 < span_cost_us(20_000) < 50.0


def test_metric_names_are_well_formed_and_described():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, catalog in ((False, END_TO_END), (True, PER_LAYER)):
        units = metric_units(trace)
        assert list(units) == list(catalog)
        assert all(NAME_PATTERN.fullmatch(name) for name in units)
        for metric in catalog.values():
            for workloads in (metric.most, metric.little):
                assert set(workloads.split(" (")[0].split(", ")) <= {
                    "standard", "faultgrid", "-"
                }, workloads
    assert [w["name"] for w in spec["workloads"]] == ["standard", "faultgrid"]


def test_layer_metrics_cover_the_catalog():
    probes = dict.fromkeys(
        (
            "events", "events_per_s", "pushed", "live", "messages", "bytes",
            "txs", "fault_drops", "dataset_mb", "trace_mb", "loop_s",
            "spans_overhead", "span_cost_us",
        ),
        0.0,
    )
    assert list(layer_metrics(Ledger(), probes)) == list(PER_LAYER)


def test_wrong_expected_digest_fails_every_repetition():
    fingerprint = {"chain_digest": "a" * 64, "events": 10}
    expected = {"chain_digest": "b" * 64, "events": 10}
    judge = Judge()
    assert not judge.check(fingerprint, [], expected)
    assert not judge.check(fingerprint, [], expected)
    assert judge.ok_share == 0.0  # failed_share = 1
    result = json.loads(result_line(judge, {"ok_share": 0.0}, {"ok_share": "fraction"}))
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 2)


def test_a_repetition_fails_on_any_difference_or_its_own_errors():
    judge = Judge()
    expected = {"chain_digest": "a", "events": 1}
    assert judge.check({"chain_digest": "a", "events": 1}, [], expected)
    assert judge.check({"chain_digest": "z", "events": 9}, [], None)
    assert not judge.check({"chain_digest": "a", "events": 2}, [], expected)
    extra = {"chain_digest": "a", "events": 1, "extra": 0}
    assert not judge.check(extra, [], expected)
    assert not judge.check(expected, ["a check failed"], None)
    assert (judge.attempted, judge.failed) == (5, 3)


def test_repetitions_run_on_distinct_seeds_starting_with_the_runs_own():
    for workload, reps in REPS.items():
        seeds = rep_seeds(7, workload)
        assert seeds[0] == 7 and len(set(seeds)) == reps
        assert set(seeds).isdisjoint(rep_seeds(8, workload))


def test_phase_time_is_split_evenly_over_the_repetitions_left():
    # 60 s left, two more repetitions whose fixed parts take 10 s each.
    assert phase_deadline(40.0, 100.0, 3, 10.0) == 40.0 + 40.0 / 3
    assert phase_deadline(40.0, 100.0, 1, 10.0) == 100.0
    # A repetition that overran the run gets a deadline already past.
    assert phase_deadline(120.0, 100.0, 1, 10.0) < 120.0


def test_cycles_run_the_minimum_past_their_deadline_and_once_when_traced():
    calls: list[int] = []
    def phase() -> int:
        calls.append(1)
        return len(calls)

    [(times, last)] = _cycles(phase, traced=False, until=0.0)
    assert len(times) == len(calls) == last == MIN_CYCLES
    [(times, _)] = _cycles(lambda: None, traced=True, until=float("inf"))
    assert len(times) == 1


def test_every_entry_point_exists_and_is_restored():
    originals = [_resolve(entry)[2] for entry in ENTRY_POINTS]
    import repro.node.node

    validate = repro.node.node.validate_block
    with installed(Ledger()):
        assert repro.node.node.validate_block is not validate
        assert all(
            _resolve(entry)[2] is not original
            for entry, original in zip(ENTRY_POINTS, originals)
        )
    assert repro.node.node.validate_block is validate
    assert [_resolve(entry)[2] for entry in ENTRY_POINTS] == originals


def test_a_missing_entry_point_fails_loudly():
    with pytest.raises(InventoryError, match="no longer exists"):
        _resolve(EntryPoint("sim.push", "repro.sim.events", "EventQueue.gone", frozenset()))


def test_uncalled_required_entry_points_are_reported():
    missing = inventory_failures(Ledger(), "standard")
    assert any("Simulator.run" in line for line in missing)
    assert not any("LinkFaultHooks.route" in line for line in missing)


def test_an_uncalled_entry_is_reported_while_its_span_mate_is_called():
    both = frozenset({"standard"})
    each = EntryPoint("p2p.wave", "repro.p2p.network", "Network.send_each", both)
    many = EntryPoint("p2p.wave", "repro.p2p.network", "Network.send_many", both)
    ledger = Ledger()
    ledger.wrap(each.span, lambda: None, entry=each.label)
    ledger.wrap(many.span, lambda: None, entry=many.label)()
    assert ledger.calls("p2p.wave") == 1
    missing = inventory_failures(ledger, "standard", (each, many))
    assert missing == [
        "repro.p2p.network.Network.send_each (p2p.wave) recorded no calls on standard"
    ]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "standard",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
