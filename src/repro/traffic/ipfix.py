"""IPFIX-style flow export and collection.

The paper's measurement study relies on IPFIX data exported by the IXP's
edge routers (§2.3).  This module models the export/collection pipeline:
flows observed on the data plane are sampled, exported by an
:class:`IpfixExporter` and aggregated by an :class:`IpfixCollector`, which
keeps a flow count and each exporter's byte total (member telemetry reads
the report's rule columns, not the collector).  The sampling model is
simple 1-in-N byte-unbiased sampling: exported flows scale their byte and
packet counters back up by the sampling rate, which is what production
collectors do.

The data plane hands the exporter one columnar
:class:`~repro.traffic.flowtable.FlowTable` per interval, and each export
is one :class:`ExportedTable` batch.  The collector folds each batch into
per-exporter totals when it receives it and keeps no flow: a long run
exports thousands of intervals, and archiving their tables would hold the
whole trace in memory.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..sim.rng import make_rng
from .flowtable import FlowTable


@dataclass(frozen=True)
class ExportedTable:
    """A columnar batch of exported flows with exporter metadata."""

    table: FlowTable
    exporter_id: str
    export_time: float
    sampling_rate: int

    def __len__(self) -> int:
        return len(self.table)


@dataclass
class IpfixExporter:
    """Samples and exports flows from one observation point."""

    exporter_id: str
    sampling_rate: int = 1
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.sampling_rate < 1:
            raise ValueError("sampling_rate must be >= 1")
        self._rng = make_rng(self.seed)
        self.exported_count = 0
        self.observed_count = 0

    def export(self, table: FlowTable, export_time: float) -> ExportedTable:
        """Sample a columnar flow batch and return the exported batch.

        At ``sampling_rate > 1`` one uniform draw per row decides which
        flows are kept; kept flows are scaled back up by the rate.
        """
        self.observed_count += len(table)
        if self.sampling_rate > 1:
            keep = self._rng.random(len(table)) < 1.0 / self.sampling_rate
            table = table.select(keep).scaled(self.sampling_rate)
        self.exported_count += len(table)
        return ExportedTable(
            table=table,
            exporter_id=self.exporter_id,
            export_time=export_time,
            sampling_rate=self.sampling_rate,
        )


@dataclass
class IpfixCollector:
    """Aggregates the exported batches of all exporters into running
    totals on arrival; no batch is kept."""

    _flow_count: int = field(default=0, init=False)
    _bytes: Counter[str] = field(default_factory=Counter, init=False)

    def receive(self, batch: ExportedTable) -> None:
        self._flow_count += len(batch)
        self._bytes[batch.exporter_id] += batch.table.total_bytes

    def __len__(self) -> int:
        return self._flow_count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def bytes_by_exporter(self) -> dict[str, int]:
        """Total (up-scaled) bytes per exporter."""
        return dict(self._bytes)
