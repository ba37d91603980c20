"""What each metric of ``BENCHMARK.json`` means and what should move it.

``BENCHMARK.json`` holds the fixed-schema list (name, unit, direction
and, end to end, the bound), and the runner takes names and units from
it.  This catalog adds for each metric the layer it belongs to, the
end-to-end metric it should move, and the listed workloads on which its
layer does most and least work.  That is the prediction a later change
is held to: on a "little" workload it should not move.  A ``-`` means
both workloads exercise the layer.

``sim.events_per_s`` continues ``benchtrack``'s ``events_per_second``
(the simulator's own events over event-loop wall, untraced), now per
workload rather than for ``standard`` alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class Metric:
    layer: str
    moves: str
    most: str
    little: str
    meaning: str


E2E = "end-to-end"
BOTH = "standard, faultgrid"

END_TO_END: dict[str, Metric] = {
    "setup_s": Metric(
        E2E, "setup_s", BOTH, "-",
        "first repro import to first simulated event: the program's import "
        "(median of several) plus world build, vantage deploy and mesh dial "
        "(standard: median of repeated deploys; faultgrid: the workers' "
        "median per-job set-up)",
    ),
    "run_s": Metric(
        E2E, "run_s", "faultgrid", "-",
        "event loop over the fixed window (faultgrid: summed over the "
        "cold sweep's jobs, as the workers measure it)",
    ),
    "artifacts_s": Metric(
        E2E, "artifacts_s", "standard", "faultgrid",
        "standard: dataset write, reload and all registry experiments; "
        "faultgrid: every grid point's dataset read from disk and its "
        "propagation and fork analysis",
    ),
    "warm_s": Metric(
        E2E, "warm_s", "faultgrid", "standard",
        "the repeat served from disk: faultgrid re-sweeps against its "
        "warm cache; standard reloads the dataset and re-renders every "
        "experiment",
    ),
    "total_s": Metric(
        E2E, "total_s", BOTH, "-",
        "set-up through the last artifact: standard through the rendered "
        "experiments, faultgrid from cold sweep start until every dataset "
        "and trace is on disk and the grid is analysed",
    ),
    "peak_rss_mb": Metric(
        E2E, "peak_rss_mb", BOTH, "-",
        "peak resident memory up to the end of the first repetition; "
        "faultgrid takes the max over parent and workers",
    ),
    "ok_share": Metric(
        E2E, "ok_share", BOTH, "-",
        "repetitions that neither raised nor failed the oracle, over "
        "those attempted (1 - failed_share)",
    ),
}


def _layer(
    layer: str, moves: str, most: str, little: str, **meanings: str
) -> dict[str, Metric]:
    """One layer's metrics; keyword names spell a dot as ``__``."""
    return {
        f"{layer}.{key}".replace("__", "."): Metric(
            f"repro.{layer}" if layer != "spans" else "benchmark",
            moves, most, little, meaning,
        )
        for key, meaning in meanings.items()
    }


PER_LAYER: dict[str, Metric] = {
    **_layer(
        "sim", "run_s", "faultgrid", "-",
        events="events fired (Simulator.events_processed)",
        events_per_s="events over event-loop wall, untraced",
        self_s="pop + dispatch: Simulator.run minus child spans",
        push__calls="EventQueue push/push_raw/push_batch calls",
        push__entries="queue entries pushed",
        push__self_s="push self time",
        queue_depth_max="queue length high-water at a push",
        wasted_share="pushed entries dropped without firing",
    ),
    **_layer(
        "geo", "run_s", "faultgrid", "-",
        delays__calls="LatencyModel.delays calls",
        delays__draws="delays drawn in vectorized calls",
        delays__self_s="LatencyModel.delays self time",
        delay__calls="LatencyModel.delay calls",
        delay__self_s="LatencyModel.delay self time",
    ),
    **_layer(
        "p2p", "run_s (dial: setup_s)", "faultgrid", "-",
        send__calls="Network.send calls",
        send__self_s="Network.send self time",
        wave__calls="send_many + send_each calls",
        wave__recipients="recipients over all waves",
        wave__self_s="send_many + send_each self time",
        fire__calls="delivery fires (callback / fire)",
        fire__self_s="delivery fire self time",
        fire__dropped_share="fires that reached no node",
        dial__calls="Network.connect + discovery sampling",
        dial__self_s="dial self time",
        messages="Network.messages_sent",
        bytes="Network.bytes_sent",
    ),
    **_layer(
        "node", "run_s", BOTH, "-",
        deliver__calls="ProtocolNode.deliver calls",
        deliver__self_s="deliver + handler self time",
        import__calls="import-phase events",
        import__self_s="import-phase self time",
        txflush__calls="transaction gossip flushes",
        txflush__self_s="transaction flush self time",
        mine__calls="MiningPool.on_win calls",
        mine__self_s="on_win self time",
    ),
    **_layer(
        "chain", "run_s", "standard", "-",
        tree__calls="BlockTree.add calls",
        tree__self_s="BlockTree.add self time",
        validate__calls="validate_block calls",
        validate__self_s="validate_block self time",
        mempool__calls="Mempool add/select/remove/reinject",
        mempool__self_s="mempool self time",
        mempool__accept_share="Mempool.add calls accepted",
    ),
    **_layer(
        "workload", "run_s", "standard", "-",
        txs="transactions submitted",
        emit__calls="burst emissions",
        emit__self_s="emission self time",
    ),
    **_layer(
        "measurement", "artifacts_s, total_s, warm_s", BOTH, "-",
        log__calls="vantage observation hooks",
        log__self_s="vantage logging self time",
        collect_s="Campaign dataset collection",
        save_s="MeasurementDataset.save wall",
        load_s="MeasurementDataset.load wall",
        dataset_mb="dataset bytes written",
    ),
    **_layer(
        "analysis", "artifacts_s, total_s", "standard", "faultgrid",
        calls="analysis calls (experiments, grid analyses)",
        self_s="analysis self time",
    ),
    **_layer(
        "faults", "total_s", "faultgrid", "standard (must be 0)",
        route__calls="LinkFaultHooks.route calls",
        route__self_share="fault routing self time / traced run_s",
        route__drop_share="routed messages dropped",
        churn__calls="churn departures",
    ),
    **_layer(
        "obs", "total_s", "faultgrid", "standard (must be 0)",
        hooks__calls="TraceRecorder hook calls",
        hooks__self_share="trace hook self time / traced run_s",
        write__self_share=".trace.bin writes + finalize self time / traced run_s",
        trace_mb=".trace.bin bytes written",
    ),
    **_layer(
        "experiments", "total_s, warm_s", "faultgrid", "standard (unused)",
        jobs="grid jobs per sweep",
        retries="job re-dispatches in the cold sweep",
        cache_hits="warm-sweep jobs served from cache",
        busy_share="summed job wall / (workers x cold sweep wall); the rest "
        "is spawn, dispatch, pipe wait, idle tail",
    ),
    **_layer(
        "spans", "-", BOTH, "-",
        overhead="traced run_s / plain run_s",
        cost_us="measured cost of one span on a no-op",
        count="spans recorded in the traced repetition",
    ),
}
