"""Parallel campaign fleet: multiprocess seed sweeps and ablation grids.

The paper's workloads that matter statistically — multi-seed confidence
intervals, ablation benches, pool-share sweeps — are grids of *independent*
campaigns.  Run sequentially they scale linearly with variant count while
every core but one idles; the fleet fans them out over a pool of
long-lived worker processes instead.

Design (see DESIGN.md §"Parallel campaign fleet"):

* **Job specs** — a :class:`CampaignJob` names either a preset
  (``preset_name`` + ``seed``) or an arbitrary
  :class:`~repro.measurement.campaign.CampaignConfig` ablation variant
  (``config`` + ``label`` + ``seed``).
* **Warm workers** — workers start once per sweep (``fork``-preferred,
  inheriting parent state bit-exactly) and pull *batches* of job indices
  over a pipe, so one process spawn and one interpreter warm-up amortize
  over many seeds.  Completion is event-driven: the parent blocks on the
  workers' result pipes and process sentinels, never on a poll timeout.
* **Determinism** — a worker runs exactly the code a sequential
  ``Campaign(config).run()`` would, and ships its dataset back through the
  existing JSONL serialization, so per-job datasets are bit-identical to
  sequential execution for the same seeds.
* **Cache interplay** — with ``use_disk`` the workers write *straight into*
  the shared disk cache (atomically, tmp + ``os.replace``); jobs already on
  disk are served by the parent without dispatching a batch at all, and a
  ``.meta.json`` sibling persists each run's event counts so cache hits
  still report real throughput.  Duplicate ``(config, seed)`` jobs in one
  sweep are deduplicated: one runs, the rest adopt its outcome.
* **Fault tolerance** — a job that raises is retried ``retries`` times; a
  worker that *dies* (OOM kill, segfault) is respawned and its in-flight
  batch requeued, charging an attempt only to the job that was actually
  running.  A job that keeps failing becomes a per-job failure in the
  :class:`FleetResult` instead of sinking the sweep.
* **Observability** — throughput counters surface as
  :class:`FleetMetrics`, rendered by
  :func:`repro.stats.format_fleet_profile`, mirroring
  :mod:`repro.sim.profile`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import tempfile
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing import connection
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.errors import FleetError
from repro.faults.plan import FaultPlan
from repro.experiments.cache import (
    DEFAULT_CACHE_DIR,
    cache_key,
    campaign_dataset,
    load_cached_dataset,
    store_dataset,
)
from repro.experiments.presets import preset
from repro.measurement.campaign import Campaign, CampaignConfig
from repro.measurement.dataset import MeasurementDataset
from repro.measurement.merge import merge_datasets
from repro.sim.profile import SimMetrics

_LABEL_PATTERN = re.compile(r"[A-Za-z0-9._-]+")


def config_digest(config: CampaignConfig) -> str:
    """A short stable digest of a campaign configuration.

    Embedded in ablation-job cache filenames so that reusing a label with
    a *changed* config can never serve a stale dataset.
    """
    canonical = json.dumps(
        dataclasses.asdict(config), sort_keys=True, default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:10]


@dataclass(frozen=True)
class CampaignJob:
    """One independent campaign in a sweep.

    Exactly one of ``preset_name`` / ``config`` must be given:

    * ``CampaignJob(preset_name="standard", seed=3)`` — a named preset;
    * ``CampaignJob(config=variant, label="majority-51", seed=3)`` — an
      arbitrary ablation variant.  ``seed`` overrides the scenario seed
      embedded in ``config`` so one variant fans out over many seeds.

    Attributes:
        preset_name: Preset campaign name (``small``/``standard``/``large``).
        config: Explicit campaign configuration (ablation variants).
        seed: Campaign seed for this job.
        label: Display + cache label; required for ``config`` jobs,
            optional override for preset jobs.  Filesystem-friendly
            (letters, digits, ``._-``).
        trace: Record a ground-truth trace alongside the dataset (the
            worker streams it next to the dataset cache as a columnar
            ``<dataset stem>.trace.bin`` container).  The dataset is
            bit-identical with or without tracing, so traced and
            untraced jobs share one dataset cache entry.
    """

    preset_name: Optional[str] = None
    config: Optional[CampaignConfig] = None
    seed: int = 1
    label: Optional[str] = None
    trace: bool = False

    def __post_init__(self) -> None:
        if (self.preset_name is None) == (self.config is None):
            raise FleetError(
                "a CampaignJob needs exactly one of preset_name or config"
            )
        if self.config is not None and self.label is None:
            raise FleetError("config jobs need a label for cache/reporting")
        if self.label is not None and not _LABEL_PATTERN.fullmatch(self.label):
            raise FleetError(
                f"job label {self.label!r} is not filesystem-friendly "
                "(use letters, digits, '.', '_', '-')"
            )
        if self.preset_name is not None:
            preset(self.preset_name, self.seed)  # fail fast on unknown names

    @property
    def name(self) -> str:
        """Human-readable job name (label, falling back to the preset)."""
        label = self.label or self.preset_name
        assert label is not None
        return label

    def resolved_config(self) -> CampaignConfig:
        """The concrete campaign configuration this job runs."""
        if self.preset_name is not None:
            config = preset(self.preset_name, self.seed)
        else:
            assert self.config is not None
            config = replace(
                self.config, scenario=replace(self.config.scenario, seed=self.seed)
            )
        if self.trace and not config.scenario.trace:
            config = replace(config, scenario=replace(config.scenario, trace=True))
        return config

    def cache_filename(self) -> str:
        """Disk-cache filename; preset jobs share :func:`cache_key`'s.

        Deliberately independent of :attr:`trace` — a traced run's
        dataset is bit-identical to an untraced one's, so both share the
        same cache entry (only the ``.trace.bin`` sibling differs).
        """
        if self.preset_name is not None and self.label is None:
            return cache_key(self.preset_name, self.seed)
        digest = config_digest(self._untraced_config())
        return f"campaign-{self.name}-{digest}-seed{self.seed}.jsonl"

    def _untraced_config(self) -> CampaignConfig:
        """The resolved config with tracing stripped (cache identity)."""
        config = self.resolved_config()
        if config.scenario.trace:
            config = replace(config, scenario=replace(config.scenario, trace=False))
        return config

    def _cache_stem(self) -> str:
        stem = self.cache_filename()
        if stem.endswith(".jsonl"):
            stem = stem[: -len(".jsonl")]
        return stem

    def trace_filename(self) -> str:
        """Trace-file sibling of :meth:`cache_filename`."""
        return f"{self._cache_stem()}.trace.bin"

    def meta_filename(self) -> str:
        """Run-report sibling of :meth:`cache_filename`.

        With ``use_disk`` the worker's per-run report (event counts, wall
        time, :class:`~repro.sim.profile.SimMetrics`) lands here, so a
        later sweep serving the dataset from cache can still report the
        run's real event counts instead of zero.
        """
        return f"{self._cache_stem()}.meta.json"

    def dedup_key(self) -> tuple[str, bool]:
        """Identity for in-sweep deduplication.

        Two jobs with the same key would run the same campaign and write
        the same cache file, so only one runs; the others adopt its
        outcome.  Trace is part of the key — a traced twin still has to
        run to export the ``.trace.bin`` sibling.
        """
        return (self.cache_filename(), self.trace)


@dataclass
class JobOutcome:
    """Result of one fleet job (success, cache hit, failure, or duplicate).

    Attributes:
        job: The job spec.
        dataset: The campaign dataset (``None`` on failure).
        error: Failure description after all retries (``None`` on success).
        attempts: Worker attempts consumed (0 for a pure cache hit or a
            deduplicated job).
        from_cache: Served from the disk cache without running a worker.
        deduped: Adopted the outcome of an identical job in the same
            sweep instead of running (see :meth:`CampaignJob.dedup_key`).
        events_processed: Simulator events the producing run processed
            (for cache hits: read back from the ``.meta.json`` sibling
            persisted by the run that filled the cache, 0 if unknown).
        wall_seconds: Worker-side campaign wall time.
        path: Disk-cache path holding the dataset (``None`` unless the
            fleet ran with ``use_disk``).
        sim_metrics: The producing simulator's full
            :class:`~repro.sim.profile.SimMetrics` snapshot (``None``
            when unknown) — what lets
            :func:`repro.stats.format_fleet_profile` report per-seed
            events/s rather than just job wall time.
        trace_path: Ground-truth trace file the worker exported
            (``None`` unless the job ran with ``trace=True``).
    """

    job: CampaignJob
    dataset: Optional[MeasurementDataset] = None
    error: Optional[str] = None
    attempts: int = 0
    from_cache: bool = False
    deduped: bool = False
    events_processed: int = 0
    wall_seconds: float = 0.0
    path: Optional[Path] = None
    sim_metrics: Optional[SimMetrics] = None
    trace_path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return self.dataset is not None

    @property
    def events_per_second(self) -> float:
        """Producing-run simulator throughput (0.0 when unknown)."""
        if self.sim_metrics is not None:
            return self.sim_metrics.events_per_second
        if self.wall_seconds > 0:
            return self.events_processed / self.wall_seconds
        return 0.0


@dataclass(frozen=True)
class FleetMetrics:
    """Immutable sweep-level throughput counters (cf. ``SimMetrics``).

    Attributes:
        jobs_total: Jobs submitted.
        jobs_succeeded: Jobs that produced a dataset (cache hits and
            deduplicated jobs included).
        jobs_failed: Jobs that failed after all retries.
        cache_hits: Jobs served from the disk cache without a worker.
        retries: Job re-dispatches after a failed attempt.
        workers: Concurrent worker-process cap the sweep ran with.
        wall_seconds: Sweep wall-clock time in the parent.
        total_events: Simulator events actually executed by this sweep's
            workers.  Cache hits and deduplicated jobs are excluded so
            :attr:`events_per_second` states real executed throughput —
            a warm-cache sweep reports the events it ran, not the events
            it remembered.
        deduped: Jobs that adopted an identical job's outcome instead of
            running (in-sweep duplicate dedup).
        cached_events: Events behind the served cache hits (read from
            the ``.meta.json`` cache siblings; informational, excluded
            from :attr:`events_per_second`).
    """

    jobs_total: int
    jobs_succeeded: int
    jobs_failed: int
    cache_hits: int
    retries: int
    workers: int
    wall_seconds: float
    total_events: int
    deduped: int = 0
    cached_events: int = 0

    @property
    def campaigns_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.jobs_succeeded / self.wall_seconds

    @property
    def events_per_second(self) -> float:
        """Aggregate *executed* simulator throughput across the fleet."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_events / self.wall_seconds


@dataclass
class FleetResult:
    """Everything a sweep produced, in job-submission order."""

    outcomes: list[JobOutcome]
    metrics: FleetMetrics

    def datasets(self) -> list[MeasurementDataset]:
        """Successful datasets, in job order."""
        return [o.dataset for o in self.outcomes if o.dataset is not None]

    def failures(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def raise_on_failure(self) -> None:
        """Raise :class:`FleetError` summarising any failed jobs."""
        failed = self.failures()
        if failed:
            summary = "; ".join(
                f"{o.job.name} seed {o.job.seed}: {o.error}" for o in failed
            )
            raise FleetError(f"{len(failed)} fleet job(s) failed: {summary}")

    def merged(self) -> MeasurementDataset:
        """All successful datasets merged for record-stream aggregation."""
        return merge_datasets(self.datasets(), allow_disjoint_worlds=True)


def _write_json_atomic(path: Path, payload: dict[str, object]) -> None:
    # Failure reports can be the first write into a fresh cache dir; a
    # missing directory must not escalate a job failure into a dead
    # worker with no report.
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)


def _read_json_tolerant(path: Path) -> dict[str, object]:
    """Read a meta report, treating absence or corruption as empty."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


#: Per-job spool/cache paths: (dataset, meta report, trace).
_JobPaths = tuple[str, str, str]


def _run_one_campaign(job: CampaignJob, paths: _JobPaths) -> None:
    """Run one campaign inside a worker, reporting through the disk.

    The dataset travels through an atomic JSONL write rather than a
    pickle pipe so that it takes exactly the same serialization path as
    the cache, and a crash mid-write can never corrupt a previously
    complete file.  The meta report carries the per-job
    :class:`~repro.sim.profile.SimMetrics` snapshot (or the traceback on
    failure).  Exceptions are contained — the warm worker survives a
    failing campaign and moves on to the next batch entry — but
    ``SystemExit``/``KeyboardInterrupt`` still kill the worker after the
    report is written, preserving process-fatal semantics.
    """
    out_path, meta_path, trace_path = paths
    campaign: Optional[Campaign] = None
    try:
        started = time.perf_counter()
        campaign = Campaign(job.resolved_config())
        if job.trace and trace_path:
            # Stream trace blocks to disk as they seal, so a traced
            # mainnet-scale job costs bounded memory, not a record list.
            campaign.stream_trace_to(trace_path)
        dataset = campaign.run()
        wall = time.perf_counter() - started
        store_dataset(dataset, Path(out_path))
        if job.trace and trace_path:
            campaign.save_trace(trace_path, preset=job.name)
        metrics = campaign.metrics
        payload: dict[str, object] = {
            "ok": True,
            "events_processed": (
                metrics.events_processed if metrics is not None else 0
            ),
            "wall_seconds": wall,
        }
        if metrics is not None:
            payload["sim_metrics"] = dataclasses.asdict(metrics)
        _write_json_atomic(Path(meta_path), payload)
    except BaseException as error:
        if campaign is not None:
            campaign.abort_trace_stream()
        _write_json_atomic(
            Path(meta_path),
            {"ok": False, "error": traceback.format_exc(limit=8)},
        )
        if not isinstance(error, Exception):
            raise  # process-fatal (SystemExit, KeyboardInterrupt)


def _pool_worker(
    jobs: Sequence[CampaignJob],
    paths: Sequence[_JobPaths],
    tasks: connection.Connection,
    results: connection.Connection,
) -> None:
    """Warm-worker main loop: pull index batches until the ``None`` pill.

    One completion message per *job* (not per batch) flows back over
    ``results`` after the job's meta report is on disk, so the parent
    can harvest, retry, and account batches at job granularity — and so
    a worker death loses at most the one job that was actually running.
    """
    try:
        while True:
            batch = tasks.recv()
            if batch is None:
                return
            for index in batch:
                _run_one_campaign(jobs[index], paths[index])
                results.send(index)
    except (EOFError, KeyboardInterrupt):
        return  # parent went away / interactive interrupt: quiet exit


def _parse_sim_metrics(payload: object) -> Optional[SimMetrics]:
    """Rebuild a worker's :class:`SimMetrics` from its meta JSON."""
    if not isinstance(payload, dict):
        return None
    try:
        return SimMetrics(
            events_processed=int(payload["events_processed"]),
            simulated_seconds=float(payload["simulated_seconds"]),
            run_wall_seconds=float(payload["run_wall_seconds"]),
            events_per_second=float(payload["events_per_second"]),
            profiled=bool(payload["profiled"]),
            event_counts={
                str(k): int(v)
                for k, v in dict(payload.get("event_counts", {})).items()
            },
            event_seconds={
                str(k): float(v)
                for k, v in dict(payload.get("event_seconds", {})).items()
            },
            queue_high_water=(
                int(payload["queue_high_water"])
                if payload.get("queue_high_water") is not None
                else None
            ),
        )
    except (KeyError, TypeError, ValueError):
        return None


def _auto_batch_size(pending: int, workers: int) -> int:
    """Four dispatch waves per worker — the classic ``Pool`` chunking
    trade-off between amortizing dispatch cost and load balancing."""
    return max(1, -(-pending // (workers * 4)))


@dataclass
class _Worker:
    """One live warm worker and its in-flight batch bookkeeping."""

    process: multiprocessing.process.BaseProcess
    tasks: connection.Connection  # parent -> worker: batches / None pill
    results: connection.Connection  # worker -> parent: completed indices
    inflight: deque[int] = field(default_factory=deque)


class CampaignPool:
    """Fans independent :class:`CampaignJob`\\ s over warm worker processes.

    Workers are started once per :meth:`run` and stay alive for the whole
    sweep, pulling job-index batches over a pipe — one process spawn and
    one interpreter warm-up amortized over many seeds.  The parent
    multiplexes on result pipes and process sentinels (event-driven, no
    poll timeout), so completions and worker deaths are noticed the
    moment they happen.

    Args:
        jobs: Concurrent worker cap; defaults to ``os.cpu_count()``.
        cache_dir: Disk-cache directory (default ``.repro-cache``).
        use_disk: Serve cached jobs from / persist results to the disk
            cache (workers write straight into it).
        retries: Job re-dispatches after a failed attempt.
        progress: Callback for one-line progress reports (e.g. ``print``);
            ``None`` keeps the sweep silent.
        start_method: ``multiprocessing`` start method; defaults to
            ``fork`` where available (bit-exact inheritance of the parent
            interpreter state), else the platform default.
        batch_size: Jobs per dispatched batch; ``None`` auto-sizes to
            about four dispatch waves per worker.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[Path] = None,
        use_disk: bool = False,
        retries: int = 1,
        progress: Optional[Callable[[str], None]] = None,
        start_method: Optional[str] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        workers = jobs if jobs is not None else (os.cpu_count() or 1)
        if workers < 1:
            raise FleetError("a fleet needs at least one worker")
        if retries < 0:
            raise FleetError("retries must be >= 0")
        if batch_size is not None and batch_size < 1:
            raise FleetError("batch_size must be >= 1 (or None for auto)")
        self.workers = workers
        self.cache_dir = (
            Path(cache_dir) if cache_dir is not None else DEFAULT_CACHE_DIR
        )
        self.use_disk = use_disk
        self.retries = retries
        self.progress = progress
        self.batch_size = batch_size
        if start_method is None and (
            "fork" in multiprocessing.get_all_start_methods()
        ):
            start_method = "fork"
        self._context = multiprocessing.get_context(start_method)

    # ------------------------------------------------------------------ #
    # Sweep execution
    # ------------------------------------------------------------------ #

    def run(self, jobs: Sequence[CampaignJob]) -> FleetResult:
        """Run every job; never raises for per-job failures."""
        jobs = list(jobs)
        if not jobs:
            raise FleetError("no jobs to run")
        if not self.use_disk and any(job.trace for job in jobs):
            raise FleetError(
                "traced jobs need use_disk=True: trace files live next to "
                "the dataset cache, and the in-memory spool is deleted when "
                "the sweep ends"
            )
        started = time.perf_counter()
        outcomes = [JobOutcome(job=job) for job in jobs]
        state = _SweepState(total=len(jobs))

        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as spool_dir:
            spool = Path(spool_dir)
            paths = [
                self._job_paths(index, job, spool)
                for index, job in enumerate(jobs)
            ]
            # In-sweep dedup: identical (config, seed) jobs would race on
            # one cache file and waste a worker each; only the first runs.
            primary_for: dict[tuple[str, bool], int] = {}
            duplicates: dict[int, int] = {}  # duplicate index -> primary
            pending: deque[int] = deque()
            for index, job in enumerate(jobs):
                key = job.dedup_key()
                primary = primary_for.get(key)
                if primary is not None:
                    duplicates[index] = primary
                    state.deduped += 1
                    continue
                primary_for[key] = index
                if self._serve_from_cache(outcomes[index]):
                    state.cache_hits += 1
                    state.done += 1
                    self._report(state, started)
                else:
                    pending.append(index)

            if pending:
                self._run_warm_pool(
                    jobs, paths, pending, outcomes, state, started
                )

            for index, primary in duplicates.items():
                self._adopt_duplicate(outcomes[index], outcomes[primary])
                state.done += 1
                self._report(state, started)

        metrics = FleetMetrics(
            jobs_total=len(jobs),
            jobs_succeeded=sum(1 for o in outcomes if o.ok),
            jobs_failed=sum(1 for o in outcomes if not o.ok),
            cache_hits=state.cache_hits,
            retries=state.retries,
            workers=self.workers,
            wall_seconds=time.perf_counter() - started,
            total_events=sum(
                o.events_processed
                for o in outcomes
                if not o.from_cache and not o.deduped
            ),
            deduped=state.deduped,
            cached_events=sum(
                o.events_processed
                for o in outcomes
                if o.from_cache and not o.deduped
            ),
        )
        return FleetResult(outcomes=outcomes, metrics=metrics)

    # ------------------------------------------------------------------ #
    # Warm worker pool
    # ------------------------------------------------------------------ #

    def _run_warm_pool(
        self,
        jobs: list[CampaignJob],
        paths: list[_JobPaths],
        pending: deque[int],
        outcomes: list[JobOutcome],
        state: "_SweepState",
        started: float,
    ) -> None:
        """Drive the sweep's worker pool until every pending job resolves."""
        batch_size = self.batch_size or _auto_batch_size(
            len(pending), min(self.workers, len(pending))
        )
        workers: list[_Worker] = []
        try:
            while pending or any(w.inflight for w in workers):
                self._top_up(workers, len(pending), batch_size, jobs, paths)
                for worker in workers:
                    if not worker.inflight and pending:
                        self._dispatch(worker, pending, batch_size, paths)
                if not pending and not any(w.inflight for w in workers):
                    break
                # Event-driven: wake on any completion message or worker
                # death — no poll timeout (connection.wait multiplexes
                # result pipes and process sentinels in one syscall).
                connection.wait(
                    [w.results for w in workers]
                    + [w.process.sentinel for w in workers]
                )
                for worker in list(workers):
                    self._absorb(worker, paths, pending, outcomes, state, started)
                    if not worker.process.is_alive():
                        # Completions can land in the pipe right before
                        # death; drain again now that liveness is settled,
                        # then requeue whatever the corpse still held.
                        self._absorb(
                            worker, paths, pending, outcomes, state, started
                        )
                        self._reap(
                            worker, paths, pending, outcomes, state, started
                        )
                        workers.remove(worker)
        finally:
            self._shutdown(workers)

    def _top_up(
        self,
        workers: list[_Worker],
        pending: int,
        batch_size: int,
        jobs: list[CampaignJob],
        paths: list[_JobPaths],
    ) -> None:
        """Keep exactly as many live workers as undispatched batches need."""
        busy = sum(1 for w in workers if w.inflight)
        batches_waiting = -(-pending // batch_size) if pending else 0
        target = min(self.workers, busy + batches_waiting)
        while len(workers) < target:
            workers.append(self._spawn_worker(jobs, paths))

    def _spawn_worker(
        self, jobs: list[CampaignJob], paths: list[_JobPaths]
    ) -> _Worker:
        task_recv, task_send = self._context.Pipe(duplex=False)
        result_recv, result_send = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_pool_worker,
            args=(jobs, paths, task_recv, result_send),
            name="fleet-worker",
        )
        process.start()
        # Close the parent's copies of the worker-side pipe ends so EOF
        # propagates when the worker dies.
        task_recv.close()
        result_send.close()
        return _Worker(process=process, tasks=task_send, results=result_recv)

    def _dispatch(
        self,
        worker: _Worker,
        pending: deque[int],
        batch_size: int,
        paths: list[_JobPaths],
    ) -> None:
        batch = [pending.popleft() for _ in range(min(batch_size, len(pending)))]
        for index in batch:
            # Clear a previous attempt's report so a stale meta can never
            # masquerade as this attempt's result.
            Path(paths[index][1]).unlink(missing_ok=True)
        try:
            worker.tasks.send(batch)
        except (OSError, ValueError):
            # Worker already dead: put the batch back untouched (no
            # attempt consumed); the reap path collects the corpse.
            pending.extendleft(reversed(batch))
            return
        worker.inflight.extend(batch)

    def _absorb(
        self,
        worker: _Worker,
        paths: list[_JobPaths],
        pending: deque[int],
        outcomes: list[JobOutcome],
        state: "_SweepState",
        started: float,
    ) -> None:
        """Harvest every completion message the worker has sent so far."""
        while True:
            try:
                if not worker.results.poll():
                    return
                index = worker.results.recv()
            except (EOFError, OSError):
                return  # pipe closed by a dead worker; _reap handles it
            if worker.inflight and worker.inflight[0] == index:
                worker.inflight.popleft()
            elif index in worker.inflight:
                worker.inflight.remove(index)
            if self._harvest(outcomes[index], index, paths, state):
                pending.append(index)
            else:
                state.done += 1
                self._report(state, started)

    def _reap(
        self,
        worker: _Worker,
        paths: list[_JobPaths],
        pending: deque[int],
        outcomes: list[JobOutcome],
        state: "_SweepState",
        started: float,
    ) -> None:
        """Absorb a dead worker: account the crashed job, requeue the rest.

        The worker processes its batch in order and acknowledges each job
        only after its meta report is on disk, so the first unacknowledged
        in-flight job is the one that was running when the process died —
        it is charged an attempt (with a synthesized error if it left no
        report).  Later batch entries never started and are requeued
        without consuming an attempt.
        """
        worker.process.join()
        exitcode = worker.process.exitcode
        if worker.inflight:
            crashed = worker.inflight.popleft()
            retry = self._harvest(
                outcomes[crashed],
                crashed,
                paths,
                state,
                exitcode=exitcode,
                died=True,
            )
            if retry:
                pending.append(crashed)
            else:
                state.done += 1
                self._report(state, started)
            pending.extend(worker.inflight)
            worker.inflight.clear()
        worker.tasks.close()
        worker.results.close()

    def _shutdown(self, workers: list[_Worker]) -> None:
        for worker in workers:
            try:
                worker.tasks.send(None)  # poison pill: clean worker exit
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.tasks.close()
            worker.results.close()
            worker.process.join(timeout=10)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _serve_from_cache(self, outcome: JobOutcome) -> bool:
        """Cache-aware scheduling: a job already on disk needs no worker."""
        if not self.use_disk:
            return False
        path = self.cache_dir / outcome.job.cache_filename()
        trace_path = self.cache_dir / outcome.job.trace_filename()
        if outcome.job.trace and not trace_path.exists():
            # The dataset may be cached, but the trace sibling is not:
            # the job must still run so the worker can export it.
            return False
        dataset = load_cached_dataset(path)
        if dataset is None:
            return False
        outcome.dataset = dataset
        outcome.from_cache = True
        outcome.path = path
        if outcome.job.trace:
            outcome.trace_path = trace_path
        # The run that filled the cache persisted its event counts in a
        # .meta.json sibling; read them back so warm-cache sweeps report
        # real per-job throughput instead of zero events.
        meta = _read_json_tolerant(
            self.cache_dir / outcome.job.meta_filename()
        )
        if meta.get("ok"):
            self._fill_throughput(outcome, meta)
        self._adopt(outcome.job, dataset)
        return True

    @staticmethod
    def _fill_throughput(
        outcome: JobOutcome, meta: dict[str, object]
    ) -> None:
        events = meta.get("events_processed", 0)
        wall = meta.get("wall_seconds", 0.0)
        outcome.events_processed = (
            int(events) if isinstance(events, (int, float)) else 0
        )
        outcome.wall_seconds = (
            float(wall) if isinstance(wall, (int, float)) else 0.0
        )
        outcome.sim_metrics = _parse_sim_metrics(meta.get("sim_metrics"))

    def _job_paths(
        self, index: int, job: CampaignJob, spool: Path
    ) -> _JobPaths:
        if self.use_disk:
            out_path = self.cache_dir / job.cache_filename()
            meta_path = self.cache_dir / job.meta_filename()
            trace_path = self.cache_dir / job.trace_filename()
        else:
            out_path = spool / f"job-{index}.jsonl"
            meta_path = spool / f"job-{index}.meta.json"
            trace_path = spool / f"job-{index}.trace.bin"
        return (str(out_path), str(meta_path), str(trace_path))

    def _harvest(
        self,
        outcome: JobOutcome,
        index: int,
        paths: list[_JobPaths],
        state: "_SweepState",
        exitcode: Optional[int] = None,
        died: bool = False,
    ) -> bool:
        """Absorb one finished attempt; return True when the job must retry."""
        outcome.attempts += 1
        out_path, meta_path, trace_path = paths[index]
        meta = _read_json_tolerant(Path(meta_path))
        error: str
        if meta.get("ok"):
            dataset = load_cached_dataset(Path(out_path))
            if dataset is not None:
                outcome.dataset = dataset
                outcome.error = None
                self._fill_throughput(outcome, meta)
                outcome.path = Path(out_path) if self.use_disk else None
                if outcome.job.trace and Path(trace_path).exists():
                    outcome.trace_path = Path(trace_path)
                self._adopt(outcome.job, dataset)
                return False
            error = f"worker wrote an unreadable dataset at {out_path}"
        elif str(meta.get("error") or "").strip():
            error = str(meta["error"]).strip().splitlines()[-1]
        elif died:
            # Killed before it could write any report (OOM kill, SIGKILL,
            # segfault): synthesize a diagnosis instead of an empty error.
            error = (
                f"worker died with exitcode {exitcode}, no report "
                "(killed mid-job, e.g. out-of-memory)"
            )
        else:
            error = "worker acknowledged the job but left no meta report"
        if outcome.attempts <= self.retries:
            state.retries += 1
            return True
        outcome.error = error
        return False

    @staticmethod
    def _adopt_duplicate(outcome: JobOutcome, primary: JobOutcome) -> None:
        """A deduplicated job adopts its primary's outcome wholesale."""
        outcome.dataset = primary.dataset
        outcome.error = primary.error
        outcome.deduped = True
        outcome.from_cache = primary.from_cache
        outcome.events_processed = primary.events_processed
        outcome.wall_seconds = primary.wall_seconds
        outcome.path = primary.path
        outcome.sim_metrics = primary.sim_metrics
        outcome.trace_path = primary.trace_path

    def _adopt(self, job: CampaignJob, dataset: MeasurementDataset) -> None:
        """Feed a worker-produced preset dataset through the shared cache
        path so in-process consumers (runner, analyses) reuse it."""
        if job.preset_name is not None and job.label is None:
            campaign_dataset(
                job.preset_name,
                job.seed,
                cache_dir=self.cache_dir,
                use_disk=self.use_disk,
                dataset=dataset,
            )

    def _report(self, state: "_SweepState", started: float) -> None:
        if self.progress is None:
            return
        elapsed = max(time.perf_counter() - started, 1e-9)
        self.progress(
            f"[fleet] {state.done}/{state.total} jobs "
            f"({state.cache_hits} cached, {state.deduped} deduped, "
            f"{state.retries} retried) | "
            f"{state.done / elapsed:.2f} campaigns/s"
        )


@dataclass
class _SweepState:
    """Mutable progress counters for one :meth:`CampaignPool.run`."""

    total: int
    done: int = 0
    cache_hits: int = 0
    retries: int = 0
    deduped: int = 0


# ---------------------------------------------------------------------- #
# Convenience entry points
# ---------------------------------------------------------------------- #


def seed_sweep_jobs(
    preset_name: Optional[str] = None,
    seeds: Sequence[int] = (),
    config: Optional[CampaignConfig] = None,
    label: Optional[str] = None,
    trace: bool = False,
) -> list[CampaignJob]:
    """One job per seed for a preset or an explicit config variant."""
    return [
        CampaignJob(
            preset_name=preset_name,
            config=config,
            seed=seed,
            label=label,
            trace=trace,
        )
        for seed in seeds
    ]


def fault_grid_jobs(
    preset_name: str,
    plan: FaultPlan,
    intensities: Sequence[float],
    seeds: Sequence[int],
    trace: bool = False,
) -> list[CampaignJob]:
    """An ablation grid over fault intensity: one job per (intensity, seed).

    Each grid point runs the named preset with ``plan.scaled(intensity)``
    as the campaign-level fault plan; intensity ``0`` is the clean
    baseline (the scaled plan is all-zeros, so no injector is built and
    the dataset is bit-identical to the plain preset run).  Labels are
    ``faults-x<intensity>`` so grid points cache separately per config
    digest.
    """
    if not intensities:
        raise FleetError("a fault grid needs at least one intensity")
    if not seeds:
        raise FleetError("a fault grid needs at least one seed")
    grid: list[CampaignJob] = []
    for intensity in intensities:
        config = replace(preset(preset_name, seed=1), faults=plan.scaled(intensity))
        label = f"faults-x{intensity:g}"
        grid.extend(
            CampaignJob(config=config, seed=seed, label=label, trace=trace)
            for seed in seeds
        )
    return grid


def run_fault_grid(
    preset_name: str,
    plan: FaultPlan,
    intensities: Sequence[float],
    seeds: Sequence[int],
    jobs: Optional[int] = None,
    cache_dir: Optional[Path] = None,
    use_disk: bool = False,
    retries: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    trace: bool = False,
    batch_size: Optional[int] = None,
) -> FleetResult:
    """Run a fault-intensity ablation grid across warm worker processes."""
    pool = CampaignPool(
        jobs=jobs,
        cache_dir=cache_dir,
        use_disk=use_disk,
        retries=retries,
        progress=progress,
        batch_size=batch_size,
    )
    return pool.run(
        fault_grid_jobs(
            preset_name, plan, intensities=intensities, seeds=seeds, trace=trace
        )
    )


def run_seed_sweep(
    preset_name: str,
    seeds: Sequence[int],
    jobs: Optional[int] = None,
    cache_dir: Optional[Path] = None,
    use_disk: bool = False,
    retries: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    trace: bool = False,
    batch_size: Optional[int] = None,
) -> FleetResult:
    """Run a multi-seed sweep of a named preset across warm worker processes.

    ``trace=True`` additionally exports a ground-truth trace per job
    (requires ``use_disk``; the files land next to the dataset cache as
    ``<dataset stem>.trace.bin``).  ``batch_size`` controls how many
    seeds one worker dispatch amortizes over (``None`` = auto).
    """
    pool = CampaignPool(
        jobs=jobs,
        cache_dir=cache_dir,
        use_disk=use_disk,
        retries=retries,
        progress=progress,
        batch_size=batch_size,
    )
    return pool.run(
        seed_sweep_jobs(preset_name=preset_name, seeds=seeds, trace=trace)
    )
