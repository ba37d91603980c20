"""The benchmark's two workloads, each a batch run built from its seed.

* ``standard`` — the ``standard`` preset's world over a 60-block window,
  then the dataset's atomic write, its reload and all registry
  experiments rendered from it.  Transaction gossip dominates.
* ``faultgrid`` — ``fault_grid_jobs`` on the ``small`` preset at fault
  intensities 0 / 0.5 / 1, run traced through a ``CampaignPool`` (a
  closed loop of one worker pulling its next batch when done) into a
  fresh cache, re-run against the warm cache, then analysed per grid
  point from disk.

A run makes :data:`REPS` repetitions (:class:`Rep`), each on its own
seed (:func:`rep_seeds`).  A repetition returns its timings, a
fingerprint of the simulated output that the oracle checks, and the
public counters the per-layer metrics need.  When given a
:class:`~ledger.Ledger`, a repetition runs with the layer wrappers
installed and also records the benchmark's own spans around the
analysis calls.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Optional

from repro.analysis.forks import fork_analysis
from repro.analysis.propagation import block_propagation_delays
from repro.experiments.cache import store_dataset
from repro.experiments.fleet import (
    CampaignJob,
    CampaignPool,
    FleetResult,
    fault_grid_jobs,
)
from repro.experiments.presets import preset
from repro.experiments.registry import EXPERIMENTS
from repro.faults import ChurnSpec, FaultPlan, LinkFaultSpec
from repro.measurement.campaign import Campaign
from repro.measurement.dataset import MeasurementDataset
from repro.node.miner import MAINNET_INTER_BLOCK_TIME
from repro.obs.export import Trace

from ledger import Ledger
from layers import installed

#: Measurement window of ``standard`` after its 160 s warm-up.
STANDARD_BLOCKS = 60
#: ``bench_ablation_churn``'s plan: sessions of 10 simulated minutes,
#: 30 s offline between them, plus a lightly lossy gossip fabric.
FAULT_PLAN = FaultPlan(
    churn=ChurnSpec(session_mean=600.0, downtime_mean=30.0),
    links=LinkFaultSpec(
        drop_prob=0.01, duplicate_prob=0.01, jitter_prob=0.1, jitter_mean=0.15
    ),
)
FAULT_INTENSITIES = (0.0, 0.5, 1.0)
FAULT_PRESET = "small"
#: Repetitions per run.  Each simulates its own seed, so a run's medians
#: average over that many worlds and one seed's larger or smaller
#: window moves them less.  faultgrid's grid is one seed per repetition.
REPS = {"standard": 4, "faultgrid": 3}
#: Repetition ``i`` of a run on seed ``s`` simulates ``s + i * SEED_STRIDE``.
SEED_STRIDE = 100_000
#: Workers of the faultgrid pool.  One: on a two-core host two workers
#: slowed each other's event loops by about a third (summed loop wall
#: ~15 s against ~11 s), which the spread of run_s then carried.
FAULT_WORKERS = 1

#: The artifact and warm phases alternate until the repetition's share
#: of the run is spent, each at least MIN_CYCLES times.  The host's
#: speed drifts over tens of seconds, so samples spread over the whole
#: run give a steadier median than a burst of them.
MIN_CYCLES = 3
#: The world build repeats until it took this long (and MIN_CYCLES times).
SETUP_SECONDS = 0.5

MB = 1024 * 1024


@dataclass
class Rep:
    """One repetition of a workload.

    Times are seconds of wall clock.  ``setup_s``, ``artifacts_s`` and
    ``warm_s`` hold every timed cycle of their phase, and the runner
    takes the median over all cycles of a run.  ``total_s`` is one pass
    through the workload and excludes the one-off ``repro`` import,
    which the runner adds.
    """

    setup_s: list[float]
    run_s: float
    artifacts_s: list[float]
    warm_s: list[float]
    total_s: float
    fingerprint: dict[str, Any]
    probes: dict[str, float] = field(default_factory=dict)
    #: Problems found by the repetition's own output checks.
    errors: list[str] = field(default_factory=list)


def chain_digest(hashes: tuple[str, ...]) -> str:
    """The canonical-chain digest used by the repo's pins."""
    return hashlib.sha256(",".join(hashes).encode()).hexdigest()


def _span(ledger: Optional[Ledger], name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    return fn if ledger is None else ledger.wrap(name, fn)


def _record_counts(dataset: MeasurementDataset) -> dict[str, list[int]]:
    counts = {name: [0, 0, 0, 0] for name in dataset.vantages}
    for column, records in enumerate(
        (
            dataset.block_messages,
            dataset.block_imports,
            dataset.tx_receptions,
            dataset.connections,
        )
    ):
        for record in records:
            counts[record.vantage][column] += 1
    return counts


def _campaign_fingerprint(
    campaign: Campaign, dataset: MeasurementDataset
) -> dict[str, Any]:
    scenario = campaign.scenario
    assert scenario is not None
    return {
        "chain_digest": chain_digest(dataset.chain.canonical_hashes),
        "chain_length": len(dataset.chain.canonical_hashes),
        "events": scenario.simulator.events_processed,
        "messages": scenario.network.messages_sent,
        "bytes": scenario.network.bytes_sent,
        "blocks_sealed": scenario.coordinator.blocks_sealed,
        "records": _record_counts(dataset),
    }


def _campaign_probes(campaign: Campaign) -> dict[str, float]:
    scenario = campaign.scenario
    assert scenario is not None
    simulator = scenario.simulator
    queue = simulator.queue_stats()
    faults = scenario.network.faults
    return {
        "events": simulator.events_processed,
        "events_per_s": simulator.metrics.events_per_second,
        "pushed": queue["pushed_total"],
        "live": queue["live"],
        "messages": scenario.network.messages_sent,
        "bytes": scenario.network.bytes_sent,
        "txs": len(scenario.workload.submitted) if scenario.workload else 0,
        "fault_drops": (
            faults.drops + faults.partition_drops if faults is not None else 0
        ),
        "trace_mb": 0.0,
    }


def _rendered(experiment: Any, dataset: MeasurementDataset) -> str:
    return str(experiment.run(dataset).render())


def _render_experiments(
    dataset: MeasurementDataset, ledger: Optional[Ledger]
) -> list[str]:
    """Render every registry experiment; return the ids that came out empty."""
    render = _span(ledger, "analysis", _rendered)
    return [e.experiment_id for e in EXPERIMENTS if not render(e, dataset).strip()]


def _deploy(config: Any) -> Campaign:
    """World build, vantage deploy and mesh dial: everything before the
    first simulated event that ``Campaign.run`` does not redo."""
    campaign = Campaign(config)
    campaign.deploy()
    assert campaign.scenario is not None
    campaign.scenario.start()
    return campaign


def rep_seeds(seed: int, workload: str) -> list[int]:
    """The seeds of a run's repetitions; the first is the run's own."""
    return [seed + index * SEED_STRIDE for index in range(REPS[workload])]


#: Given how long a repetition's fixed part (set-up, event loop or cold
#: sweep, checks) took, the ``time.perf_counter`` time by which its
#: phase cycles should end.
Pace = Callable[[float], float]


def _cycles(
    *phases: Callable[[], Any], traced: bool, until: float
) -> list[tuple[list[float], Any]]:
    """Wall time of each call of each phase, and each phase's last result.

    Short phases are called in turn, round after round, each at least
    :data:`MIN_CYCLES` times, and no round starts that would end past
    ``until``, so one scheduling hiccup cannot dominate them.  Each
    call starts from a collected heap that no longer holds the phase's
    previous result, as a single run would.  A traced repetition calls
    each phase once, keeping the per-layer counts exact.
    """
    clock = time.perf_counter
    times: list[list[float]] = [[] for _ in phases]
    results: list[Any] = [None] * len(phases)
    while True:
        round_start = clock()
        for index, phase in enumerate(phases):
            results[index] = None
            gc.collect()
            start = clock()
            results[index] = phase()
            times[index].append(clock() - start)
        now = clock()
        if traced or (
            len(times[0]) >= MIN_CYCLES and now + (now - round_start) > until
        ):
            return list(zip(times, results))


def standard_rep(
    seed: int, work: Path, pace: Pace, ledger: Optional[Ledger] = None
) -> Rep:
    config = preset("standard", seed)
    config = replace(config, duration=STANDARD_BLOCKS * MAINNET_INTER_BLOCK_TIME)
    path = work / "standard.jsonl"
    traced = ledger is not None
    clock = time.perf_counter

    def artifacts() -> tuple[MeasurementDataset, list[str]]:
        dataset.save(path)
        loaded = MeasurementDataset.load(path)
        return loaded, _render_experiments(loaded, ledger)

    def warm_pass() -> tuple[MeasurementDataset, list[str]]:
        warm = MeasurementDataset.load(path)
        return warm, _render_experiments(warm, ledger)

    with installed(ledger) if traced else contextlib.nullcontext():
        started = clock()
        [(setup_s, campaign)] = _cycles(
            lambda: _deploy(config), traced=traced, until=started + SETUP_SECONDS
        )
        gc.collect()
        start = clock()
        dataset = campaign.run()
        run_s = clock() - start
        fingerprint = _campaign_fingerprint(campaign, dataset)
        probes = _campaign_probes(campaign)
        # A script that runs a campaign and saves its dataset has let go
        # of the simulated world by then.
        del campaign
        (artifacts_s, (loaded, empty)), (warm_s, (warm, warm_empty)) = _cycles(
            artifacts, warm_pass, traced=traced, until=pace(clock() - started)
        )
    errors = [f"experiment {name} rendered nothing" for name in empty + warm_empty]
    if not loaded == warm == dataset:
        errors.append("the dataset did not reload equal")
    probes["dataset_mb"] = path.stat().st_size / MB
    return Rep(
        setup_s=setup_s,
        run_s=run_s,
        artifacts_s=artifacts_s,
        warm_s=warm_s,
        total_s=statistics.median(setup_s) + run_s + statistics.median(artifacts_s),
        fingerprint=fingerprint,
        probes=probes,
        errors=errors,
    )


def _analyse_grid(paths: list[Path], ledger: Optional[Ledger]) -> None:
    """Propagation and fork analysis of every grid point, read from disk."""
    for path in paths:
        dataset = MeasurementDataset.load(path)
        _span(ledger, "analysis", block_propagation_delays)(dataset)
        _span(ledger, "analysis", fork_analysis)(dataset)


def _file_digests(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def _job_fingerprint(jobs: list[Any], digests: list[str], events: list[int]) -> dict[str, Any]:
    return {
        "jobs": [
            [job.name, job.seed, digest, count]
            for job, digest, count in zip(jobs, digests, events)
        ]
    }


def _clean_digest(seed: int) -> str:
    """Chain digest of the plain, fault-free ``small`` campaign.

    It runs in a pool worker, as the grid's jobs do, so that the
    parent's peak memory stays that of the sweep and its analysis.
    """
    clean = CampaignPool(jobs=1).run([CampaignJob(preset_name=FAULT_PRESET, seed=seed)])
    clean.raise_on_failure()
    [dataset] = clean.datasets()
    return chain_digest(dataset.chain.canonical_hashes)


def faultgrid_jobs(seed: int) -> list[Any]:
    """One repetition's grid: the seed at every fault intensity."""
    return fault_grid_jobs(
        FAULT_PRESET,
        FAULT_PLAN,
        intensities=FAULT_INTENSITIES,
        seeds=(seed,),
        trace=True,
    )


def faultgrid_rep(
    seed: int, work: Path, pace: Pace, ledger: Optional[Ledger] = None
) -> Rep:
    if ledger is not None:
        return _traced_faultgrid_rep(seed, work, ledger)
    jobs = faultgrid_jobs(seed)
    cache = work / "cache"
    workers = FAULT_WORKERS
    clock = time.perf_counter
    start = clock()
    cold = CampaignPool(jobs=workers, cache_dir=cache, use_disk=True).run(jobs)
    swept = clock()
    datasets = cold.datasets()
    paths = [cache / job.cache_filename() for job in jobs]
    cold_bytes = _file_digests(cache)
    errors = _check_cold(cold)
    (artifacts_s, _), (warm_s, warm) = _cycles(
        lambda: _analyse_grid(paths, None),
        lambda: CampaignPool(jobs=workers, cache_dir=cache, use_disk=True).run(jobs),
        traced=False,
        until=pace(clock() - start),
    )
    errors += [
        f"{o.job.name} seed {o.job.seed} failed: {o.error}" for o in warm.failures()
    ]
    if warm.metrics.cache_hits != len(jobs):
        errors.append(
            f"warm pass served {warm.metrics.cache_hits}/{len(jobs)} from cache"
        )
    if [o.path for o in warm.outcomes] != [o.path for o in cold.outcomes]:
        errors.append("warm pass served other files than the cold pass wrote")
    if _file_digests(cache) != cold_bytes:
        errors.append("the warm pass changed the cached files")
    outcomes = cold.outcomes
    job_walls = [outcome.wall_seconds for outcome in outcomes]
    loop_walls = [
        outcome.sim_metrics.run_wall_seconds if outcome.sim_metrics else 0.0
        for outcome in outcomes
    ]
    busy = sum(job_walls)
    probes: dict[str, float] = {
        "events_per_s": sum(o.events_processed for o in outcomes) / sum(loop_walls),
        "experiments.jobs": len(jobs),
        "experiments.retries": cold.metrics.retries,
        "experiments.cache_hits": warm.metrics.cache_hits,
        "experiments.busy_share": busy / (workers * cold.metrics.wall_seconds),
    }
    return Rep(
        setup_s=[job - loop for job, loop in zip(job_walls, loop_walls)],
        run_s=sum(loop_walls),
        artifacts_s=artifacts_s,
        warm_s=warm_s,
        total_s=swept - start + statistics.median(artifacts_s),
        fingerprint=_job_fingerprint(
            jobs,
            [chain_digest(d.chain.canonical_hashes) for d in datasets]
            if len(datasets) == len(jobs)
            else [],
            [outcome.events_processed for outcome in outcomes],
        ),
        probes=probes,
        errors=errors,
    )


def _check_cold(cold: FleetResult) -> list[str]:
    """Every job ran, its trace reopens with its dataset's chain, and
    the x0 point reproduces the fault-free run."""
    errors = [
        f"{o.job.name} seed {o.job.seed} failed: {o.error}" for o in cold.failures()
    ]
    if errors:
        return errors
    for outcome in cold.outcomes:
        assert outcome.dataset is not None  # no failures, checked above
        hashes = outcome.dataset.chain.canonical_hashes
        if outcome.trace_path is None:
            errors.append(f"{outcome.job.name} seed {outcome.job.seed}: no trace")
        elif tuple(Trace.scan(outcome.trace_path).canonical_hashes) != hashes:
            errors.append(f"{outcome.trace_path.name}: trailer chain differs")
        if outcome.job.name == "faults-x0" and chain_digest(
            hashes
        ) != _clean_digest(outcome.job.seed):
            errors.append(
                f"x0 seed {outcome.job.seed} differs from the fault-free run"
            )
    return errors


def _traced_faultgrid_rep(seed: int, work: Path, ledger: Ledger) -> Rep:
    """Spans do not cross the pool's fork: run the grid's jobs in
    process, doing what a worker does for each job."""
    jobs = faultgrid_jobs(seed)
    digests, events, errors = [], [], []
    probes: dict[str, float] = {}
    loop_s = 0.0
    with installed(ledger):
        for job in jobs:
            data_path = work / job.cache_filename()
            trace_path = work / job.trace_filename()
            campaign = Campaign(job.resolved_config())
            campaign.stream_trace_to(trace_path)
            dataset = campaign.run()
            loop_s += campaign.metrics.run_wall_seconds
            store_dataset(dataset, data_path)
            campaign.save_trace(trace_path, preset=job.name)
            _analyse_grid([data_path], ledger)
            hashes = dataset.chain.canonical_hashes
            if tuple(Trace.scan(trace_path).canonical_hashes) != hashes:
                errors.append(f"{trace_path.name}: trailer chain differs")
            digests.append(chain_digest(hashes))
            job_probes = _campaign_probes(campaign)
            events.append(job_probes["events"])
            job_probes["dataset_mb"] = data_path.stat().st_size / MB
            job_probes["trace_mb"] = trace_path.stat().st_size / MB
            for key, value in job_probes.items():
                probes[key] = probes.get(key, 0) + value
            del campaign, dataset
    return Rep(
        setup_s=[],
        run_s=loop_s,
        artifacts_s=[],
        warm_s=[],
        total_s=0.0,
        fingerprint=_job_fingerprint(jobs, digests, events),
        probes=probes,
        errors=errors,
    )
