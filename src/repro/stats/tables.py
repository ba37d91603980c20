"""ASCII table rendering.

The benchmark harness prints each reproduced table with the same rows and
columns the paper uses, so paper-vs-measured comparison is a side-by-side
read.  No third-party table library is available offline; this renderer
covers exactly what the harness needs.
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    align_right: bool = True,
) -> str:
    """Render a monospace table.

    Args:
        headers: Column names.
        rows: Cell values; rendered with ``str``; floats get 3 decimals.
        title: Optional title line above the table.
        align_right: Right-align every column except the first.
    """
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:,.3f}"
        return str(cell)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for index, cell in enumerate(cells):
            if index == 0 or not align_right:
                parts.append(cell.ljust(widths[index]))
            else:
                parts.append(cell.rjust(widths[index]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in rendered)
    return "\n".join(lines)


def format_percent(value: float, decimals: int = 2) -> str:
    """Render a fraction as a percentage string (``0.0145`` → ``1.45%``)."""
    return f"{100 * value:.{decimals}f}%"


def format_event_profile(metrics) -> str:
    """Render a :class:`~repro.sim.profile.SimMetrics` snapshot as a table.

    One row per event type (sorted by count, descending) plus summary
    lines for throughput and the queue high-water mark.  Without
    profiling enabled only the summary lines are available.
    """
    total = metrics.events_processed
    lines: list[str] = []
    if metrics.event_counts:
        rows = []
        for label in sorted(
            metrics.event_counts,
            key=lambda name: (-metrics.event_counts[name], name),
        ):
            count = metrics.event_counts[label]
            seconds = metrics.event_seconds.get(label, 0.0)
            rows.append(
                (
                    label,
                    f"{count:,}",
                    format_percent(count / total if total else 0.0, 1),
                    seconds,
                    f"{1e6 * seconds / count:.1f}" if count else "-",
                )
            )
        lines.append(
            format_table(
                ("event type", "count", "share", "seconds", "us/event"),
                rows,
                title="Event-loop profile",
            )
        )
    else:
        lines.append("Event-loop profile (per-type breakdown requires profile=True)")
    lines.append(f"events processed : {total:,}")
    lines.append(f"simulated time   : {metrics.simulated_seconds:,.1f} s")
    lines.append(f"event-loop wall  : {metrics.run_wall_seconds:,.2f} s")
    lines.append(f"events / second  : {metrics.events_per_second:,.0f}")
    if metrics.queue_high_water is not None:
        lines.append(f"queue high-water : {metrics.queue_high_water:,}")
    return "\n".join(lines)


def format_fleet_profile(metrics, outcomes=None) -> str:
    """Render a :class:`~repro.experiments.fleet.FleetMetrics` snapshot.

    The sweep-level sibling of :func:`format_event_profile`: jobs done,
    campaign throughput, and the aggregate simulator events/second across
    every worker process.  Pass the sweep's
    :class:`~repro.experiments.fleet.JobOutcome` list to additionally get
    one row per job with the worker's own simulator throughput (from its
    :class:`~repro.sim.profile.SimMetrics` snapshot).
    """
    lines = [
        "Fleet profile",
        f"jobs             : {metrics.jobs_total:,} "
        f"({metrics.jobs_succeeded:,} ok, {metrics.jobs_failed:,} failed, "
        f"{metrics.cache_hits:,} cached, {metrics.deduped:,} deduped)",
        f"workers          : {metrics.workers:,} "
        f"(retries: {metrics.retries:,})",
        f"sweep wall       : {metrics.wall_seconds:,.2f} s",
        f"campaigns / s    : {metrics.campaigns_per_second:,.3f}",
        f"events / second  : {metrics.events_per_second:,.0f} "
        "(executed this sweep; cache hits excluded)",
    ]
    if metrics.cached_events:
        lines.append(
            f"cached events    : {metrics.cached_events:,} "
            "(served from the disk cache, not re-executed)"
        )
    if outcomes:
        rows = []
        for outcome in outcomes:
            if not outcome.ok:
                status = "failed"
            elif outcome.deduped:
                status = "dedup"
            elif outcome.from_cache:
                status = "cached"
            else:
                status = "ok"
            eps = outcome.events_per_second
            rows.append(
                (
                    f"{outcome.job.name} seed {outcome.job.seed}",
                    status,
                    f"{outcome.events_processed:,}" if outcome.ok else "-",
                    f"{outcome.wall_seconds:,.2f}"
                    if outcome.wall_seconds > 0
                    else "-",
                    f"{eps:,.0f}" if eps > 0 else "-",
                    "yes" if outcome.trace_path is not None else "-",
                )
            )
        lines.append("")
        lines.append(
            format_table(
                ("job", "status", "events", "wall s", "events/s", "trace"),
                rows,
                title="Per-job throughput",
            )
        )
    return "\n".join(lines)
