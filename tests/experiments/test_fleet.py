"""Tests for the parallel campaign fleet.

The load-bearing guarantees: job specs validate eagerly, a warm-pool
sweep is *bit-identical* to sequential execution for the same seeds
(including across batch boundaries), a raising job is retried, a worker
that *dies* mid-batch is respawned with its batch requeued, duplicate
jobs are deduplicated, a persistently failing job becomes a per-job
failure without sinking the sweep, and jobs already in the disk cache
are served — with their persisted event counts — without running a
worker.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, FleetError
from repro.experiments import cache
from repro.experiments.fleet import (
    CampaignJob,
    CampaignPool,
    _auto_batch_size,
    config_digest,
    seed_sweep_jobs,
)
from repro.experiments.presets import small_campaign
from repro.geo.regions import Region
from repro.measurement.campaign import Campaign
from repro.measurement.dataset import MeasurementDataset


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    cache.clear_memory_cache()
    yield
    cache.clear_memory_cache()


# ---------------------------------------------------------------------- #
# Job specs
# ---------------------------------------------------------------------- #


def test_job_requires_exactly_one_source():
    with pytest.raises(FleetError):
        CampaignJob()
    with pytest.raises(FleetError):
        CampaignJob(preset_name="small", config=small_campaign(), label="x")


def test_config_job_requires_label():
    with pytest.raises(FleetError):
        CampaignJob(config=small_campaign())


def test_job_rejects_hostile_label():
    with pytest.raises(FleetError):
        CampaignJob(config=small_campaign(), label="../escape")


def test_job_rejects_unknown_preset_eagerly():
    with pytest.raises(ConfigurationError):
        CampaignJob(preset_name="galactic")


def test_config_job_seed_overrides_scenario_seed():
    job = CampaignJob(config=small_campaign(seed=1), label="variant", seed=9)
    assert job.resolved_config().scenario.seed == 9


def test_preset_job_cache_filename_matches_cache_key():
    job = CampaignJob(preset_name="small", seed=7)
    assert job.cache_filename() == cache.cache_key("small", 7)


def test_config_job_cache_filename_tracks_config_changes():
    base = small_campaign(seed=1)
    job = CampaignJob(config=base, label="variant", seed=1)
    changed = CampaignJob(
        config=replace(base, duration=base.duration + 13.3),
        label="variant",
        seed=1,
    )
    assert "variant" in job.cache_filename()
    assert job.cache_filename() != changed.cache_filename()
    assert config_digest(base) != config_digest(changed.config)


def test_pool_rejects_zero_workers_and_empty_sweeps():
    with pytest.raises(FleetError):
        CampaignPool(jobs=0)
    with pytest.raises(FleetError):
        CampaignPool(jobs=1).run([])
    with pytest.raises(FleetError):
        CampaignPool(jobs=1, batch_size=0)


def test_meta_filename_is_a_cache_sibling():
    job = CampaignJob(preset_name="small", seed=7)
    assert job.meta_filename() == "campaign-small-seed7.meta.json"
    traced = CampaignJob(preset_name="small", seed=7, trace=True)
    # The meta sibling is shared with the untraced twin, like the dataset.
    assert traced.meta_filename() == job.meta_filename()


def test_dedup_key_separates_trace_but_not_labels():
    plain = CampaignJob(preset_name="small", seed=7)
    twin = CampaignJob(preset_name="small", seed=7)
    traced = CampaignJob(preset_name="small", seed=7, trace=True)
    other_seed = CampaignJob(preset_name="small", seed=8)
    assert plain.dedup_key() == twin.dedup_key()
    # A traced twin still has to run to export the .trace.jsonl sibling.
    assert plain.dedup_key() != traced.dedup_key()
    assert plain.dedup_key() != other_seed.dedup_key()


def test_auto_batch_size_targets_four_waves_per_worker():
    assert _auto_batch_size(4, 4) == 1
    assert _auto_batch_size(64, 4) == 4
    assert _auto_batch_size(1, 1) == 1
    assert _auto_batch_size(100, 2) == 13


def test_traced_and_untraced_jobs_share_a_cache_entry():
    plain = CampaignJob(preset_name="small", seed=7)
    traced = CampaignJob(preset_name="small", seed=7, trace=True)
    assert traced.resolved_config().scenario.trace is True
    assert plain.resolved_config().scenario.trace is False
    # The dataset is bit-identical with tracing on, so the cache entry
    # is shared; only the .trace.bin sibling differs.
    assert traced.cache_filename() == plain.cache_filename()
    assert traced.trace_filename().endswith(".trace.bin")
    labeled = CampaignJob(
        config=small_campaign(seed=1), label="variant", seed=1
    )
    labeled_traced = CampaignJob(
        config=small_campaign(seed=1), label="variant", seed=1, trace=True
    )
    assert labeled.cache_filename() == labeled_traced.cache_filename()


def test_traced_jobs_require_the_disk_cache():
    pool = CampaignPool(jobs=1, use_disk=False)
    with pytest.raises(FleetError, match="use_disk"):
        pool.run([CampaignJob(preset_name="small", seed=1, trace=True)])


# ---------------------------------------------------------------------- #
# Parallel/sequential equivalence + cache-aware scheduling
# ---------------------------------------------------------------------- #


@pytest.mark.slow
def test_parallel_sweep_bit_identical_and_cache_aware(tmp_path):
    """A 2-worker warm-pool sweep over seeds {1, 2, 3} with batch_size=2
    (so one worker runs two campaigns back-to-back in one process)
    produces datasets byte-identical (after the JSONL round-trip) to
    sequential ``Campaign(...).run()`` — and a rerun over the warm cache
    runs no workers at all while still reporting the persisted per-seed
    event counts."""
    seeds = (1, 2, 3)
    sequential_dir = tmp_path / "sequential"
    sequential_dir.mkdir()
    for seed in seeds:
        dataset = Campaign(small_campaign(seed=seed)).run()
        dataset.save(sequential_dir / f"seed{seed}.jsonl")

    fleet_dir = tmp_path / "fleet"
    pool = CampaignPool(jobs=2, cache_dir=fleet_dir, use_disk=True, batch_size=2)
    result = pool.run(seed_sweep_jobs("small", seeds))
    result.raise_on_failure()
    assert result.metrics.jobs_succeeded == 3
    assert result.metrics.total_events > 0
    for seed, outcome in zip(seeds, result.outcomes):
        assert outcome.job.seed == seed
        sequential_bytes = (sequential_dir / f"seed{seed}.jsonl").read_bytes()
        assert outcome.path.read_bytes() == sequential_bytes

    rerun = pool.run(seed_sweep_jobs("small", seeds))
    assert rerun.metrics.cache_hits == 3
    assert all(o.from_cache and o.attempts == 0 for o in rerun.outcomes)
    assert [
        d.chain.canonical_hashes for d in rerun.datasets()
    ] == [d.chain.canonical_hashes for d in result.datasets()]
    # Event counts survive the cache round-trip via the .meta.json
    # sibling, but don't inflate the sweep's *executed* throughput.
    for fresh, cached in zip(result.outcomes, rerun.outcomes):
        assert cached.events_processed == fresh.events_processed > 0
        assert cached.sim_metrics is not None
    assert rerun.metrics.total_events == 0
    assert rerun.metrics.cached_events == result.metrics.total_events


@pytest.mark.slow
def test_duplicate_jobs_dedup_to_one_worker_run(tmp_path):
    """Identical (config, seed) jobs in one sweep run once; the
    duplicates adopt the primary's outcome instead of racing on the
    same cache file."""
    pool = CampaignPool(jobs=2, cache_dir=tmp_path / "cache", use_disk=True)
    result = pool.run(
        [
            CampaignJob(preset_name="small", seed=41),
            CampaignJob(preset_name="small", seed=41),
            CampaignJob(preset_name="small", seed=41),
        ]
    )
    result.raise_on_failure()
    primary, *dups = result.outcomes
    assert result.metrics.deduped == 2
    assert result.metrics.jobs_succeeded == 3
    assert not primary.deduped and primary.attempts == 1
    for dup in dups:
        assert dup.deduped
        assert dup.attempts == 0
        assert dup.dataset is primary.dataset
        assert dup.events_processed == primary.events_processed
        assert dup.path == primary.path
    # Executed events counted once, not three times.
    assert result.metrics.total_events == primary.events_processed


@pytest.mark.slow
def test_traced_sweep_exports_trace_and_sim_metrics(tmp_path):
    """A traced job ships a loadable trace next to its cache entry and a
    full per-worker SimMetrics snapshot; a cached-dataset job without a
    trace sibling still spawns a worker to produce one."""
    from repro.obs.export import Trace

    cache_dir = tmp_path / "cache"
    pool = CampaignPool(jobs=1, cache_dir=cache_dir, use_disk=True)

    # Warm the dataset cache WITHOUT a trace.
    first = pool.run([CampaignJob(preset_name="small", seed=3)])
    first.raise_on_failure()
    assert first.outcomes[0].trace_path is None
    assert first.outcomes[0].sim_metrics is not None
    assert first.outcomes[0].sim_metrics.events_processed > 0
    assert first.outcomes[0].events_per_second > 0

    # Same job traced: the dataset is cached, but the missing trace
    # sibling forces a worker run.
    traced = pool.run([CampaignJob(preset_name="small", seed=3, trace=True)])
    traced.raise_on_failure()
    outcome = traced.outcomes[0]
    assert not outcome.from_cache
    assert outcome.trace_path is not None and outcome.trace_path.exists()
    assert outcome.trace_path.parent == cache_dir
    # The worker streams the columnar container, block by block.
    from repro.obs.binio import is_binary_trace

    assert outcome.trace_path.name.endswith(".trace.bin")
    assert is_binary_trace(outcome.trace_path)
    trace = Trace.load(outcome.trace_path)
    assert trace.seed == 3
    assert trace.preset == "small"
    assert trace.canonical_hashes == outcome.dataset.chain.canonical_hashes
    assert len(trace.records) > 0

    # Rerun: now both dataset and trace are cached — pure cache hit.
    rerun = pool.run([CampaignJob(preset_name="small", seed=3, trace=True)])
    assert rerun.metrics.cache_hits == 1
    assert rerun.outcomes[0].trace_path == outcome.trace_path


# ---------------------------------------------------------------------- #
# Fault tolerance
# ---------------------------------------------------------------------- #


@pytest.mark.slow
def test_flaky_worker_is_retried_and_sweep_completes(tmp_path, monkeypatch):
    """A worker that raises on its first attempt is retried; the retry
    succeeds and the sweep completes.  Failure injection rides on the
    ``fork`` start method: the patched ``Campaign.run`` and the marker
    file are both visible inside the worker."""
    marker = tmp_path / "fail-once"
    marker.touch()
    original_run = Campaign.run

    def flaky_run(self):
        if marker.exists():
            marker.unlink()
            raise RuntimeError("injected transient failure")
        return original_run(self)

    monkeypatch.setattr(Campaign, "run", flaky_run)
    pool = CampaignPool(jobs=1, retries=1, start_method="fork")
    result = pool.run([CampaignJob(preset_name="small", seed=31)])
    outcome = result.outcomes[0]
    assert outcome.ok
    assert outcome.attempts == 2
    assert result.metrics.retries == 1
    assert result.metrics.jobs_failed == 0
    assert not marker.exists()


@pytest.mark.slow
def test_mid_batch_worker_crash_requeues_rest_of_batch(tmp_path, monkeypatch):
    """A worker killed partway through a two-job batch charges an attempt
    only to the job it died on; the untouched rest of the batch is
    requeued for free and the respawned worker finishes the sweep."""
    marker = tmp_path / "kill-once"
    marker.touch()
    original_run = Campaign.run

    def killer_run(self):
        # Die hard (no exception, no meta report) on the second batch
        # job's first attempt — simulating an OOM kill mid-batch.
        if self.config.scenario.seed == 35 and marker.exists():
            marker.unlink()
            os._exit(9)
        return original_run(self)

    monkeypatch.setattr(Campaign, "run", killer_run)
    pool = CampaignPool(
        jobs=1,
        retries=1,
        cache_dir=tmp_path / "cache",
        use_disk=True,
        start_method="fork",
        batch_size=2,
    )
    result = pool.run(
        [
            CampaignJob(preset_name="small", seed=34),
            CampaignJob(preset_name="small", seed=35),
        ]
    )
    result.raise_on_failure()
    survivor, crashed = result.outcomes
    assert survivor.ok and crashed.ok
    assert crashed.attempts == 2  # in flight when the worker died
    assert survivor.attempts == 1  # requeued without an attempt charge
    assert result.metrics.retries == 1
    assert not marker.exists()


@pytest.mark.slow
def test_worker_killed_without_report_synthesizes_a_clear_error(
    tmp_path, monkeypatch
):
    """A worker that dies before writing its meta report (every attempt)
    surfaces as a per-job failure naming the exitcode, not a silent hang
    or an unexplained empty error."""

    def always_die(self):
        os._exit(9)

    monkeypatch.setattr(Campaign, "run", always_die)
    pool = CampaignPool(jobs=1, retries=0, start_method="fork")
    result = pool.run([CampaignJob(preset_name="small", seed=36)])
    outcome = result.outcomes[0]
    assert not outcome.ok
    assert "exitcode 9" in outcome.error
    assert "no report" in outcome.error
    assert result.metrics.jobs_failed == 1


def test_persistent_failure_is_reported_without_sinking_the_sweep(tmp_path):
    """A job that fails on every attempt ends up as a per-job failure;
    the healthy jobs in the same sweep still complete."""
    # Duplicate vantage regions fail fast at deploy time, inside the worker.
    broken = replace(
        small_campaign(seed=1),
        vantage_regions=(Region.WESTERN_EUROPE, Region.WESTERN_EUROPE),
    )
    progress_lines: list[str] = []
    pool = CampaignPool(
        jobs=2, retries=1, cache_dir=tmp_path, progress=progress_lines.append
    )
    result = pool.run(
        [
            CampaignJob(config=broken, label="broken", seed=1),
            CampaignJob(preset_name="small", seed=32),
        ]
    )
    failed, healthy = result.outcomes
    assert not failed.ok
    assert failed.attempts == 2  # first attempt + one retry
    assert "duplicate vantage region" in failed.error
    assert healthy.ok
    assert result.metrics.jobs_failed == 1
    assert result.metrics.jobs_succeeded == 1
    with pytest.raises(FleetError, match="broken"):
        result.raise_on_failure()
    assert any("[fleet]" in line for line in progress_lines)


def test_adopted_preset_datasets_land_in_the_memory_cache(tmp_path):
    """Worker-produced preset datasets flow through campaign_dataset, so
    in-process consumers get them without re-running the campaign."""
    pool = CampaignPool(jobs=1, cache_dir=tmp_path, use_disk=True)
    result = pool.run([CampaignJob(preset_name="small", seed=33)])
    result.raise_on_failure()
    adopted = cache.campaign_dataset(
        "small", 33, cache_dir=tmp_path, use_disk=True
    )
    assert adopted is result.outcomes[0].dataset


@pytest.mark.slow
def test_sweeps_load_each_preset_dataset_once(tmp_path, monkeypatch):
    """Adopting a preset job's dataset into the memory cache does not
    read its file a second time: one load per job on the cold sweep
    (the harvest) and one on the warm sweep (the cache hit)."""
    loads: list[str] = []
    load = MeasurementDataset.load.__func__

    def counting_load(cls, path):
        loads.append(Path(path).name)
        return load(cls, path)

    monkeypatch.setattr(MeasurementDataset, "load", classmethod(counting_load))
    seeds = (34, 35)
    expected = sorted(cache.cache_key("small", seed) for seed in seeds)
    pool = CampaignPool(jobs=2, cache_dir=tmp_path, use_disk=True)

    cold = pool.run(seed_sweep_jobs("small", seeds))
    cold.raise_on_failure()
    assert sorted(loads) == expected

    loads.clear()
    warm = pool.run(seed_sweep_jobs("small", seeds))
    assert warm.metrics.cache_hits == len(seeds)
    assert sorted(loads) == expected
