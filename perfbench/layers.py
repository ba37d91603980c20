"""The traced run's span inventory and the per-layer metrics it yields.

Each :class:`EntryPoint` names one function or method the traced run
wraps in a span, and the workloads that must call it.  The wrappers are
installed on the defining class (or module) *before* the world is
built: ``Network.__init__`` binds the queue's ``push_raw``/``push_batch``,
nodes bind their handler table, and ``repro.node.node`` imports
``validate_block`` by name, so a wrapper installed later would miss
those calls.  Module-level functions are re-bound in every loaded
``repro`` module that holds them under the same name.

An entry point that no longer exists raises :class:`InventoryError`
when the wrappers are installed, and one that records no calls of its
own on a workload that must call it is reported by
:func:`inventory_failures` (each wrapper counts its calls apart from
the others sharing its span); either way a rename or deletion cannot
silently drop a layer from the ledger.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from ledger import Ledger, Units

ALL = frozenset({"standard", "faultgrid"})
FAULTS = frozenset({"faultgrid"})


class InventoryError(RuntimeError):
    """A wrapped entry point is missing from the program."""


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module`` + dotted ``attr`` inside it."""

    span: str
    module: str
    attr: str
    required: frozenset[str]
    units: Optional[Callable[[Ledger], Units]] = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attr}"


def _one_entry(ledger: Ledger) -> Units:
    def units(args: tuple[Any, ...], result: Any) -> int:
        ledger.peak("sim.queue_depth", len(args[0]))
        return 1

    return units


def _batch_entries(ledger: Ledger) -> Units:
    def units(args: tuple[Any, ...], result: Any) -> int:
        ledger.peak("sim.queue_depth", len(args[0]))
        return len(args[1])

    return units


def _second_arg_len(ledger: Ledger) -> Units:
    return lambda args, result: len(args[2])


def _accepted(ledger: Ledger) -> Units:
    return lambda args, result: 1 if result else 0


ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("sim.run", "repro.sim.engine", "Simulator.run", ALL),
    EntryPoint("sim.push", "repro.sim.events", "EventQueue.push", ALL, _one_entry),
    EntryPoint("sim.push", "repro.sim.events", "EventQueue.push_raw", ALL, _one_entry),
    EntryPoint(
        "sim.push", "repro.sim.events", "EventQueue.push_batch", ALL, _batch_entries
    ),
    EntryPoint(
        "geo.delays", "repro.geo.latency", "LatencyModel.delays", ALL, _second_arg_len
    ),
    EntryPoint("geo.delay", "repro.geo.latency", "LatencyModel.delay", ALL),
    EntryPoint("p2p.send", "repro.p2p.network", "Network.send", ALL),
    EntryPoint(
        "p2p.wave", "repro.p2p.network", "Network.send_many", ALL, _second_arg_len
    ),
    EntryPoint(
        "p2p.wave", "repro.p2p.network", "Network.send_each", ALL, _second_arg_len
    ),
    EntryPoint("p2p.fire", "repro.p2p.network", "DeliveryEvent.callback", ALL),
    EntryPoint("p2p.fire", "repro.p2p.network", "BatchDeliveryEvent.fire", ALL),
    EntryPoint("p2p.fire", "repro.p2p.network", "EachDeliveryEvent.fire", ALL),
    EntryPoint("p2p.dial", "repro.p2p.network", "Network.connect", ALL),
    EntryPoint(
        "p2p.dial", "repro.p2p.discovery", "DiscoveryService.sample_peers", ALL
    ),
    EntryPoint("node.deliver", "repro.node.node", "ProtocolNode.deliver", ALL),
    EntryPoint(
        "node.import", "repro.node.node", "ProtocolNode._propagate_direct", ALL
    ),
    EntryPoint("node.import", "repro.node.node", "ProtocolNode._finish_import", ALL),
    EntryPoint(
        "node.txflush", "repro.node.node", "ProtocolNode._flush_tx_queues", ALL
    ),
    EntryPoint("node.mine", "repro.node.pool", "MiningPool.on_win", ALL),
    EntryPoint("chain.tree", "repro.chain.forkchoice", "BlockTree.add", ALL),
    EntryPoint("chain.validate", "repro.chain.validation", "validate_block", ALL),
    EntryPoint(
        "chain.mempool.add", "repro.chain.mempool", "Mempool.add", ALL, _accepted
    ),
    EntryPoint("chain.mempool", "repro.chain.mempool", "Mempool.select", ALL),
    EntryPoint("chain.mempool", "repro.chain.mempool", "Mempool.remove_included", ALL),
    EntryPoint("chain.mempool", "repro.chain.mempool", "Mempool.reinject", frozenset()),
    EntryPoint(
        "workload.emit",
        "repro.workload.transactions",
        "TransactionWorkload._emit_burst",
        ALL,
    ),
    EntryPoint(
        "measurement.log",
        "repro.measurement.instrumented",
        "InstrumentedNode._observe_block_message",
        ALL,
    ),
    EntryPoint(
        "measurement.log",
        "repro.measurement.instrumented",
        "InstrumentedNode._observe_transactions",
        ALL,
    ),
    EntryPoint(
        "measurement.log",
        "repro.measurement.instrumented",
        "InstrumentedNode._observe_block_import",
        ALL,
    ),
    EntryPoint(
        "measurement.log",
        "repro.measurement.instrumented",
        "InstrumentedNode._observe_connection",
        ALL,
    ),
    EntryPoint(
        "measurement.collect", "repro.measurement.campaign", "Campaign._collect", ALL
    ),
    EntryPoint(
        "measurement.save", "repro.measurement.dataset", "MeasurementDataset.save", ALL
    ),
    EntryPoint(
        "measurement.load", "repro.measurement.dataset", "MeasurementDataset.load", ALL
    ),
    EntryPoint("faults.route", "repro.faults.injector", "LinkFaultHooks.route", FAULTS),
    EntryPoint(
        "faults.churn", "repro.faults.injector", "FaultInjector._churn_offline", FAULTS
    ),
    EntryPoint("obs.write", "repro.obs.binio", "TraceBinWriter.write_block", FAULTS),
    EntryPoint("obs.write", "repro.obs.binio", "TraceBinWriter.finalize", FAULTS),
) + tuple(
    EntryPoint(
        "obs.hooks",
        "repro.obs.recorder",
        f"TraceRecorder.{hook}",
        FAULTS if hook in ("gossip_wave", "gossip_each", "block_sealed") else frozenset(),
    )
    for hook in (
        "node_registered",
        "lottery_win",
        "block_sealed",
        "gossip_send",
        "gossip_wave",
        "gossip_each",
        "delivery_dropped",
        "block_received",
        "fetch_started",
        "validation_started",
        "block_imported",
        "head_changed",
        "tx_first_seen",
        "node_offline",
        "node_online",
        "partition_started",
        "partition_healed",
        "link_fault",
        "snapshot_metrics",
    )
)


def _resolve(entry: EntryPoint) -> tuple[Any, str, Any]:
    """(owner, attribute name, raw attribute) for one entry point."""
    label = entry.label
    try:
        owner: Any = importlib.import_module(entry.module)
    except ImportError as error:
        raise InventoryError(f"{label}: module no longer exists") from error
    *path, name = entry.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise InventoryError(f"{label}: {part} no longer exists")
    if name not in vars(owner):
        raise InventoryError(f"{label} no longer exists")
    return owner, name, vars(owner)[name]


@contextlib.contextmanager
def installed(ledger: Ledger) -> Iterator[None]:
    """Wrap every entry point in ``ledger`` spans; restore on exit."""
    undo: list[tuple[Any, str, Any]] = []

    def swap(owner: Any, name: str, value: Any) -> None:
        undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    try:
        for entry in ENTRY_POINTS:
            owner, name, raw = _resolve(entry)
            units = entry.units(ledger) if entry.units is not None else None
            if isinstance(raw, classmethod):
                wrapped = ledger.wrap(entry.span, raw.__func__, units, entry.label)
                swap(owner, name, classmethod(wrapped))
                continue
            wrapped = ledger.wrap(entry.span, raw, units, entry.label)
            swap(owner, name, wrapped)
            if isinstance(owner, type):
                continue
            # A module-level function: re-bind the by-name imports too.
            for module_name, module in list(sys.modules.items()):
                if (
                    module_name.startswith("repro.")
                    and module is not owner
                    and getattr(module, name, None) is raw
                ):
                    swap(module, name, wrapped)
        yield
    finally:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)


def inventory_failures(
    ledger: Ledger, workload: str, entries: tuple[EntryPoint, ...] = ENTRY_POINTS
) -> list[str]:
    """Entry points ``workload`` must call but the ledger never saw called."""
    return [
        f"{entry.label} ({entry.span}) recorded no calls on {workload}"
        for entry in entries
        if workload in entry.required and ledger.entry_calls(entry.label) == 0
    ]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(ledger: Ledger, probes: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values from the traced run's ledger and counters.

    ``probes`` holds the public counters the workload read off the
    program (events, queue stats, network and fault counters, artifact
    sizes, fleet outcomes) plus the benchmark's own ratios.  The fault,
    trace and fleet layers, which ``standard`` bypasses, report shares
    rather than seconds, so no timing reads a constant zero there.
    """
    calls, self_s, total = ledger.calls, ledger.self_time, ledger.total
    mempool_calls = calls("chain.mempool") + calls("chain.mempool.add")
    return {
        "sim.events": probes["events"],
        "sim.events_per_s": probes["events_per_s"],
        "sim.self_s": self_s("sim.run"),
        "sim.push.calls": calls("sim.push"),
        "sim.push.entries": ledger.units("sim.push"),
        "sim.push.self_s": self_s("sim.push"),
        "sim.queue_depth_max": ledger.peaks.get("sim.queue_depth", 0),
        "sim.wasted_share": _share(
            probes["pushed"] - probes["events"] - probes["live"], probes["pushed"]
        ),
        "geo.delays.calls": calls("geo.delays"),
        "geo.delays.draws": ledger.units("geo.delays"),
        "geo.delays.self_s": self_s("geo.delays"),
        "geo.delay.calls": calls("geo.delay"),
        "geo.delay.self_s": self_s("geo.delay"),
        "p2p.send.calls": calls("p2p.send"),
        "p2p.send.self_s": self_s("p2p.send"),
        "p2p.wave.calls": calls("p2p.wave"),
        "p2p.wave.recipients": ledger.units("p2p.wave"),
        "p2p.wave.self_s": self_s("p2p.wave"),
        "p2p.fire.calls": calls("p2p.fire"),
        "p2p.fire.self_s": self_s("p2p.fire"),
        "p2p.fire.dropped_share": _share(
            calls("p2p.fire") - calls("node.deliver", parent="p2p.fire"),
            calls("p2p.fire"),
        ),
        "p2p.dial.calls": calls("p2p.dial"),
        "p2p.dial.self_s": self_s("p2p.dial"),
        "p2p.messages": probes["messages"],
        "p2p.bytes": probes["bytes"],
        "node.deliver.calls": calls("node.deliver"),
        "node.deliver.self_s": self_s("node.deliver"),
        "node.import.calls": calls("node.import"),
        "node.import.self_s": self_s("node.import"),
        "node.txflush.calls": calls("node.txflush"),
        "node.txflush.self_s": self_s("node.txflush"),
        "node.mine.calls": calls("node.mine"),
        "node.mine.self_s": self_s("node.mine"),
        "chain.tree.calls": calls("chain.tree"),
        "chain.tree.self_s": self_s("chain.tree"),
        "chain.validate.calls": calls("chain.validate"),
        "chain.validate.self_s": self_s("chain.validate"),
        "chain.mempool.calls": mempool_calls,
        "chain.mempool.self_s": self_s("chain.mempool") + self_s("chain.mempool.add"),
        "chain.mempool.accept_share": _share(
            ledger.units("chain.mempool.add"), calls("chain.mempool.add")
        ),
        "workload.txs": probes["txs"],
        "workload.emit.calls": calls("workload.emit"),
        "workload.emit.self_s": self_s("workload.emit"),
        "measurement.log.calls": calls("measurement.log"),
        "measurement.log.self_s": self_s("measurement.log"),
        "measurement.collect_s": total("measurement.collect"),
        "measurement.save_s": total("measurement.save"),
        "measurement.load_s": total("measurement.load"),
        "measurement.dataset_mb": probes["dataset_mb"],
        "analysis.calls": calls("analysis"),
        "analysis.self_s": self_s("analysis"),
        "faults.route.calls": calls("faults.route"),
        "faults.route.self_share": _share(self_s("faults.route"), probes["loop_s"]),
        "faults.route.drop_share": _share(probes["fault_drops"], calls("faults.route")),
        "faults.churn.calls": calls("faults.churn"),
        "obs.hooks.calls": calls("obs.hooks"),
        "obs.hooks.self_share": _share(self_s("obs.hooks"), probes["loop_s"]),
        "obs.write.self_share": _share(self_s("obs.write"), probes["loop_s"]),
        "obs.trace_mb": probes["trace_mb"],
        **{
            f"experiments.{name}": probes.get(f"experiments.{name}", 0)
            for name in ("jobs", "retries", "cache_hits", "busy_share")
        },
        "spans.overhead": probes["spans_overhead"],
        "spans.cost_us": probes["span_cost_us"],
        "spans.count": ledger.span_count(),
    }
