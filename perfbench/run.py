"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload standard --seed 1 --seconds 55 --trace 0

``--trace 0`` makes the workload's fixed number of repetitions with
tracing off, each on its own seed derived from ``--seed``, and spreads
the repeated short phases (artifacts, warm) over the ``--seconds`` the
run has: each repetition's phase cycles get an even share of the time
its fixed part leaves.  It prints the end-to-end metrics as medians:
over the repetitions, and for the phases a repetition times in repeated
cycles (set-up, artifacts, warm) over all of the run's cycles.
``--trace 1`` runs the first repetition once plain and once with every
layer's entry points wrapped in spans, and prints the per-layer metrics.

Each repetition's simulated output is fingerprinted (canonical-chain
digest, events, messages, bytes, blocks, per-vantage record counts;
per-job digests on faultgrid).  For a seed recorded in ``oracle.json``
the fingerprint must match the record, and the traced repetition's
per-layer counts (every metric in unit ``count``) must match the
recorded ones; the traced repetition must match the plain one on any
seed.  A repetition that raises, fails its own output checks or
mismatches counts as failed.  The fingerprints and layer counts go to
stderr, one JSON line each, so a new oracle can be recorded from a
run's output.

Metric names and units come from ``BENCHMARK.json`` at the repository
root.  The program is imported from ``src/`` next to this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Optional

from layers import inventory_failures, layer_metrics
from ledger import Ledger, span_cost_us

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
ORACLE = HERE / "oracle.json"
WORK = ROOT / ".perfbench-work"
#: Times the program's import is measured: once in this process, the
#: rest in fresh interpreters.
IMPORT_SAMPLES = 3
WORKLOADS = ("standard", "faultgrid")


def mismatches(got: dict[str, Any], expected: dict[str, Any]) -> list[str]:
    """Keys whose values differ between two records."""
    got, expected = json.loads(json.dumps([got, expected]))
    return [
        f"{key}: {got.get(key)!r} != expected {expected.get(key)!r}"
        for key in sorted(set(expected) | set(got))
        if got.get(key) != expected.get(key)
    ]


class Judge:
    """Counts repetitions and checks each against its expected fingerprint."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(
        self,
        fingerprint: dict[str, Any],
        errors: list[str],
        expected: Optional[dict[str, Any]],
    ) -> bool:
        """Count one repetition; True when it passed."""
        self.attempted += 1
        problems = list(errors)
        if expected is not None:
            problems += mismatches(fingerprint, expected)
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        if problems:
            self.failed += 1
        return not problems

    def fail(self) -> None:
        """Count one repetition that raised."""
        traceback.print_exc(file=sys.stderr)
        self.attempted += 1
        self.failed += 1

    @property
    def ok_share(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def load_oracle(workload: str) -> dict[str, Any]:
    """Seed -> recorded ``fingerprint`` (and, for a run's own seed,
    ``layer_counts``) of the workload."""
    records = json.loads(ORACLE.read_text(encoding="utf-8"))
    return records.get(workload, {})


def phase_deadline(
    now: float, deadline: float, reps_left: int, fixed_s: float
) -> float:
    """When a repetition's phase cycles should end.

    The time left until ``deadline``, less the fixed parts of the
    repetitions still to come (taken to cost what this one's did), is
    split evenly between this repetition and those.
    """
    return now + (deadline - now - fixed_s * (reps_left - 1)) / reps_left


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists for the mode."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_seconds() -> float:
    """Wall time of the program's import in a fresh interpreter."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
        "import workloads; print(time.perf_counter() - start)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def result_line(judge: Judge, metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": judge.failed == 0,
            "attempted": judge.attempted,
            "failed": judge.failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": units[name]}
                for name in units
            },
        }
    )


class Runner:
    """One benchmark process: the imported program plus a scratch dir."""

    def __init__(
        self, workloads: Any, workload: str, seed: int, work: Path, import_s: float
    ) -> None:
        self.name = workload
        self.seed = seed
        self.work = work
        self.import_s = import_s
        self.oracle = load_oracle(workload)
        self.seeds: list[int] = workloads.rep_seeds(seed, workload)
        self._reps = 0
        self.rep_fn: Callable[..., Any] = {
            "standard": workloads.standard_rep,
            "faultgrid": workloads.faultgrid_rep,
        }[workload]

    def expected(self, seed: int) -> Optional[dict[str, Any]]:
        return self.oracle.get(str(seed), {}).get("fingerprint")

    def rep(
        self, seed: int, pace: Callable[[float], float], ledger: Any = None
    ) -> Any:
        self._reps += 1
        rep_dir = self.work / f"rep-{self._reps}"
        rep_dir.mkdir()
        try:
            rep = self.rep_fn(seed, rep_dir, pace, ledger)
            timings = {
                key: getattr(rep, key)
                for key in ("setup_s", "run_s", "artifacts_s", "warm_s", "total_s")
            }
            timings["peak_rss_mb"] = peak_rss_mb()
            print(json.dumps({"rep": self._reps, **timings}), file=sys.stderr)
            record = {"seed": seed, "fingerprint": rep.fingerprint}
            print(json.dumps(record), file=sys.stderr)
            return rep
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
            gc.collect()

    def plain(self, seconds: float, started: float, judge: Judge) -> dict[str, float]:
        import_s = statistics.median(
            [self.import_s] + [import_seconds() for _ in range(IMPORT_SAMPLES - 1)]
        )
        deadline = started + seconds
        passed, completed = [], []
        for index, seed in enumerate(self.seeds):
            reps_left = len(self.seeds) - index

            def pace(fixed_s: float, reps_left: int = reps_left) -> float:
                return phase_deadline(time.perf_counter(), deadline, reps_left, fixed_s)

            try:
                rep = self.rep(seed, pace)
            except Exception:
                rep = None
                judge.fail()
            if index == 0:
                # Later repetitions would add the heap the earlier ones
                # fragmented, which depends on how many cycles they ran.
                peak_mb = peak_rss_mb()
            if rep is None:
                continue
            completed.append(rep)
            if judge.check(rep.fingerprint, rep.errors, self.expected(seed)):
                passed.append(rep)
        # With every repetition wrong the result still prints, marked
        # incorrect with ok_share 0, rather than vanishing.
        reps = passed or completed
        if not reps:
            return {}

        def median(field: str) -> float:
            return statistics.median(getattr(rep, field) for rep in reps)

        def pooled(field: str) -> float:
            return statistics.median(t for rep in reps for t in getattr(rep, field))

        return {
            "setup_s": import_s + pooled("setup_s"),
            "run_s": median("run_s"),
            "artifacts_s": pooled("artifacts_s"),
            "warm_s": pooled("warm_s"),
            "total_s": import_s + median("total_s"),
            "peak_rss_mb": peak_mb,
            "ok_share": judge.ok_share,
        }

    def traced(self, judge: Judge, units: dict[str, str]) -> dict[str, float]:
        """The first repetition plain, then traced; its per-layer metrics."""
        expected = self.expected(self.seed)
        try:
            plain = self.rep(self.seed, lambda fixed_s: 0.0)
        except Exception:
            judge.fail()
            return {}
        judge.check(plain.fingerprint, plain.errors, expected)
        ledger = Ledger()
        try:
            traced = self.rep(self.seed, lambda fixed_s: 0.0, ledger)
        except Exception:
            judge.fail()
            return {}
        problems = inventory_failures(ledger, self.name)
        if self.name != "faultgrid":
            for span in ("faults.route", "obs.hooks"):
                if ledger.calls(span):
                    problems.append(f"{span} was called on {self.name}")
        # Counters come from the traced repetition (the oracle holds them
        # equal to the plain one's); rates and fleet outcomes from the
        # plain one, which ran untraced and, on faultgrid, through the pool.
        probes = dict(traced.probes)
        probes.update(
            {k: v for k, v in plain.probes.items() if k.startswith("experiments.")}
        )
        probes["events_per_s"] = plain.probes["events_per_s"]
        probes["loop_s"] = traced.run_s
        probes["spans_overhead"] = traced.run_s / plain.run_s
        probes["span_cost_us"] = span_cost_us()
        metrics = layer_metrics(ledger, probes)
        counts = {name: metrics[name] for name, unit in units.items() if unit == "count"}
        print(json.dumps({"layer_counts": counts}), file=sys.stderr)
        expected_counts = self.oracle.get(str(self.seed), {}).get("layer_counts")
        if expected_counts is not None:
            problems += [f"layer count {m}" for m in mismatches(counts, expected_counts)]
        judge.check(
            traced.fingerprint,
            traced.errors + problems,
            plain.fingerprint if expected is None else expected,
        )
        return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    # The fleet's spool directories go through tempfile: keep them here.
    tempfile.tempdir = str(work)
    try:
        started = time.perf_counter()
        workloads = importlib.import_module("workloads")
        import_s = time.perf_counter() - started
        runner = Runner(workloads, args.workload, args.seed, work, import_s)
        judge = Judge()
        units = metric_units(bool(args.trace))
        if args.trace:
            metrics = runner.traced(judge, units)
        else:
            metrics = runner.plain(args.seconds, started, judge)
        if not metrics:
            print("perfbench: every repetition failed", file=sys.stderr)
            return 1
        print(result_line(judge, metrics, units))
        return 0
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
