"""Per-rule fixtures: each rule must fire on the hazard and stay quiet on
the idiomatic fix.  These snippets are the executable specification of
the rule set."""

from __future__ import annotations

import textwrap

from repro.devtools.lint import LintConfig, lint_source


def _lint(source: str, relpath: str = "mod.py", **kwargs) -> list:
    return lint_source(textwrap.dedent(source), relpath, LintConfig(**kwargs))


def _rule_ids(findings) -> list[str]:
    return [finding.rule_id for finding in findings]


# --------------------------------------------------------------------- #
# DET001 — wall clock
# --------------------------------------------------------------------- #


def test_det001_flags_time_time():
    findings = _lint(
        """
        import time

        def handler(simulator):
            return time.time()
        """
    )
    assert _rule_ids(findings) == ["DET001"]
    assert findings[0].line == 5
    assert "time.time" in findings[0].message


def test_det001_resolves_aliases_and_from_imports():
    findings = _lint(
        """
        import time as t
        from datetime import datetime

        def stamp():
            return t.monotonic(), datetime.now()
        """
    )
    assert _rule_ids(findings) == ["DET001", "DET001"]


def test_det001_ignores_simulated_time_and_allowlisted_modules():
    clean = """
        import time

        def handler(simulator):
            simulator.call_later(1.0, lambda: None)
            return simulator.now + time.gmtime(0).tm_year
        """
    assert _lint(clean) == []
    wallclock = """
        import time

        def throughput():
            return time.perf_counter()
        """
    assert _rule_ids(_lint(wallclock, "repro/experiments/fleet.py")) == []
    assert _rule_ids(_lint(wallclock, "repro/node/node.py")) == ["DET001"]


# --------------------------------------------------------------------- #
# DET002 — ambient RNG
# --------------------------------------------------------------------- #


def test_det002_flags_stdlib_random_import():
    findings = _lint(
        """
        import random

        def pick(items):
            return random.choice(items)
        """
    )
    assert "DET002" in _rule_ids(findings)


def test_det002_flags_legacy_numpy_and_unseeded_default_rng():
    findings = _lint(
        """
        import numpy as np

        def draw():
            a = np.random.rand(4)
            b = np.random.default_rng()
            return a, b
        """
    )
    assert _rule_ids(findings) == ["DET002", "DET002"]


def test_det002_allows_seeded_generators():
    findings = _lint(
        """
        import numpy as np

        def draw(rng: np.random.Generator, seed: int):
            fresh = np.random.default_rng(seed)
            return rng.integers(10), fresh.integers(10)
        """
    )
    assert findings == []


# --------------------------------------------------------------------- #
# DET003 — unordered iteration
# --------------------------------------------------------------------- #


def test_det003_flags_for_loop_over_set_variable():
    findings = _lint(
        """
        def fanout(peers: set[int]):
            acc = []
            for peer in peers:
                acc.append(peer)
            return acc
        """
    )
    assert _rule_ids(findings) == ["DET003"]


def test_det003_tracks_assignments_attributes_and_algebra():
    findings = _lint(
        """
        class Node:
            def __init__(self):
                self._known: set[str] = set()

            def snapshot(self, extra):
                merged = self._known | extra
                return [h for h in merged]
        """
    )
    assert _rule_ids(findings) == ["DET003"]


def test_det003_flags_list_conversion_but_not_sorted():
    findings = _lint(
        """
        def freeze(hashes: set[str]):
            bad = list(hashes)
            good = sorted(hashes)
            return bad, good
        """
    )
    assert _rule_ids(findings) == ["DET003"]
    assert "list()" in findings[0].message


def test_det003_quiet_on_membership_and_len():
    findings = _lint(
        """
        def check(hashes: set[str], h: str):
            return h in hashes, len(hashes), bool(hashes)
        """
    )
    assert findings == []


def test_det003_flags_set_returning_function_calls():
    findings = _lint(
        """
        def canonical() -> set[str]:
            return {"a"}

        def walk():
            return [h for h in canonical()]
        """
    )
    assert _rule_ids(findings) == ["DET003"]


# --------------------------------------------------------------------- #
# DET004 — unordered float accumulation
# --------------------------------------------------------------------- #


def test_det004_flags_sum_over_set():
    findings = _lint(
        """
        def total(delays: set[float]):
            return sum(delays)
        """
    )
    assert _rule_ids(findings) == ["DET004"]


def test_det004_quiet_on_sorted_sum_and_lists():
    findings = _lint(
        """
        def total(delays: set[float], xs: list[float]):
            return sum(sorted(delays)) + sum(xs)
        """
    )
    assert findings == []


# --------------------------------------------------------------------- #
# SIM001 — scheduling ordered by a set
# --------------------------------------------------------------------- #


def test_sim001_flags_send_inside_set_loop():
    findings = _lint(
        """
        def gossip(network, node_id, targets: set[int]):
            for target in targets:
                network.send(node_id, target, None)
        """
    )
    assert _rule_ids(findings) == ["DET003", "SIM001"]
    assert ".send()" in findings[1].message


def test_sim001_flags_schedule_and_call_later():
    findings = _lint(
        """
        def arm(simulator, deadlines: set[float]):
            for deadline in deadlines:
                simulator.schedule(deadline, lambda: None)
                simulator.call_later(deadline, lambda: None)
        """,
        select=frozenset({"SIM001"}),
    )
    assert _rule_ids(findings) == ["SIM001", "SIM001"]


def test_sim001_quiet_when_loop_is_sorted():
    findings = _lint(
        """
        def gossip(network, node_id, targets: set[int]):
            for target in sorted(targets):
                network.send(node_id, target, None)
        """
    )
    assert findings == []


# --------------------------------------------------------------------- #
# OBS001 — ad-hoc output in simulation hot layers
# --------------------------------------------------------------------- #


def test_obs001_flags_print_in_hot_layers():
    source = """
        def deliver(node, block):
            print(f"delivered {block} to {node}")
        """
    findings = _lint(source, "src/repro/p2p/network.py")
    assert _rule_ids(findings) == ["OBS001"]
    assert "simulator.trace" in findings[0].message


def test_obs001_flags_logging_imports_in_hot_layers():
    findings = _lint(
        """
        import logging
        from logging import getLogger
        """,
        "src/repro/node/node.py",
    )
    assert _rule_ids(findings) == ["OBS001", "OBS001"]


def test_obs001_ignores_other_layers_and_trace_emission():
    noisy = """
        def report(result):
            print(result)
        """
    # The CLI/experiment layers are exactly where print() belongs.
    assert _lint(noisy, "src/repro/cli.py") == []
    assert _lint(noisy, "src/repro/experiments/runner.py") == []
    clean = """
        def deliver(self, node, block):
            if self._trace.enabled:
                self._trace.block_received(
                    time=self.simulator.now, node=node.name,
                    block_hash=block, height=1, peer_id=0, direct=True,
                )
        """
    assert _lint(clean, "src/repro/node/node.py") == []


# --------------------------------------------------------------------- #
# API001 — broad except / mutable defaults
# --------------------------------------------------------------------- #


def test_api001_flags_bare_and_broad_except():
    findings = _lint(
        """
        def guarded():
            try:
                return 1
            except Exception:
                return 2

        def bare():
            try:
                return 1
            except:
                return 2
        """
    )
    assert _rule_ids(findings) == ["API001", "API001"]


def test_api001_allows_reraising_handlers_and_narrow_catches():
    findings = _lint(
        """
        class ReproError(Exception):
            pass

        def convert():
            try:
                return 1
            except BaseException:
                raise SystemExit(1)

        def narrow():
            try:
                return 1
            except ReproError:
                return 2
        """
    )
    assert findings == []


def test_api001_flags_mutable_defaults():
    findings = _lint(
        """
        def bad(a, cache={}, items=[], seen=set()):
            return a

        def good(a, cache=None, items=(), flag=False):
            return a
        """
    )
    assert _rule_ids(findings) == ["API001", "API001", "API001"]


# --------------------------------------------------------------------- #
# FLT001 — fault code outside dedicated RNG streams
# --------------------------------------------------------------------- #


def test_flt001_flags_generic_rng_receivers_in_fault_code():
    source = """
        class Injector:
            def decide(self):
                if self.rng.random() < 0.5:
                    return True
                return self._rng.exponential(2.0)
        """
    findings = _lint(source, "src/repro/faults/injector.py")
    assert _rule_ids(findings) == ["FLT001", "FLT001"]
    assert "faults.* child stream" in findings[0].message


def test_flt001_flags_non_faults_stream_namespaces():
    source = """
        class Injector:
            def __init__(self, simulator):
                self._churn_rng = simulator.rng.stream("workload.churn")
                self._link_rng = simulator.rng.stream(prefix + "links")
        """
    findings = _lint(source, "src/repro/faults/injector.py")
    assert _rule_ids(findings) == ["FLT001", "FLT001"]
    assert "'workload.churn'" in findings[0].message
    assert "computed namespace" in findings[1].message


def test_flt001_flags_ambient_module_rng():
    source = """
        import random
        import numpy.random as npr

        def jitter():
            return random.random() + npr.exponential(0.1)
        """
    findings = _lint(
        source, "src/repro/faults/injector.py", select=frozenset({"FLT001"})
    )
    assert _rule_ids(findings) == ["FLT001", "FLT001"]
    assert all("ambient" in finding.message for finding in findings)


def test_flt001_allows_dedicated_streams_and_other_layers():
    clean = """
        class Injector:
            def __init__(self, simulator):
                self._churn_rng = simulator.rng.stream("faults.churn")

            def decide(self):
                return self._churn_rng.exponential(120.0)
        """
    assert _lint(clean, "src/repro/faults/injector.py") == []
    # Outside the fault layer, generically named receivers are fine.
    generic = """
        def draw(self):
            return self.rng.random()
        """
    assert _lint(generic, "src/repro/p2p/network.py") == []


# --------------------------------------------------------------------- #
# PERF004 — direct heapq import outside repro.sim
# --------------------------------------------------------------------- #


def test_perf004_flags_heapq_import_outside_sim():
    source = """
        import heapq

        def next_job(jobs):
            return heapq.heappop(jobs)
        """
    findings = _lint(source, "src/repro/workload/jobs.py")
    assert _rule_ids(findings) == ["PERF004"]
    assert "EventQueue" in findings[0].message


def test_perf004_flags_from_import_and_aliases():
    findings = _lint(
        """
        from heapq import heappush
        import heapq as hq
        """,
        "src/repro/stats/rank.py",
    )
    assert _rule_ids(findings) == ["PERF004", "PERF004"]


def test_perf004_allows_event_queue_and_justified_uses():
    queue = """
        from heapq import heappop, heappush

        def push(heap, entry):
            heappush(heap, entry)
        """
    assert _lint(queue, "src/repro/sim/events.py") == []
    justified = """
        import heapq  # repro: noqa[PERF004] cold-path k-way merge, not event scheduling

        def merge(streams):
            return heapq.merge(*streams)
        """
    assert _lint(justified, "src/repro/obs/columns.py") == []


# --------------------------------------------------------------------- #
# Framework behaviour
# --------------------------------------------------------------------- #


def test_select_restricts_rules():
    source = """
        import random

        def loop(peers: set[int]):
            return [p for p in peers]
        """
    assert _rule_ids(_lint(source)) == ["DET002", "DET003"]
    assert _rule_ids(_lint(source, select=frozenset({"DET002"}))) == ["DET002"]


def test_findings_carry_location_and_snippet():
    findings = _lint(
        """
        def loop(peers: set[int]):
            return [p for p in peers]
        """
    )
    (finding,) = findings
    assert finding.path == "mod.py"
    assert finding.line == 3
    assert finding.snippet == "return [p for p in peers]"
    assert finding.location() == "mod.py:3:23"
