"""Per-replay device statistics.

Collects everything the paper's evaluation reports: per-request service and
response times (Fig. 8, Table IV), the no-wait ratio (Characteristic 3),
space utilization (Fig. 9), GC and wear activity, and power-mode switching
(Characteristic 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.trace import US_PER_MS

from .geometry import PageKind


@dataclass
class DeviceStats:
    """Mutable counters filled in during a trace replay."""

    # Per-request samples, microseconds.
    response_us: List[float] = field(default_factory=list)
    service_us: List[float] = field(default_factory=list)
    wait_us: List[float] = field(default_factory=list)

    # Host-visible accounting.
    requests: int = 0
    no_wait_requests: int = 0
    data_bytes_written: int = 0
    flash_bytes_consumed: int = 0
    data_bytes_read: int = 0

    # Flash-level activity.
    page_reads: Dict[PageKind, int] = field(default_factory=dict)
    page_programs: Dict[PageKind, int] = field(default_factory=dict)
    erases: int = 0
    gc_collections: int = 0
    gc_migrated_slots: int = 0
    idle_gc_collections: int = 0
    preloaded_pages: int = 0

    # Power and busy-time accounting (for the energy model).
    wakeups: int = 0
    busy_read_us: float = 0.0
    busy_program_us: float = 0.0
    busy_erase_us: float = 0.0
    busy_transfer_us: float = 0.0
    active_idle_us: float = 0.0
    low_power_us: float = 0.0

    # Cache (only populated when a RAM buffer is attached).
    cache_read_hits: int = 0
    cache_read_misses: int = 0

    # Fault injection (all zero unless a FaultPlan is active).
    read_retries: int = 0
    corrected_reads: int = 0
    uncorrectable_reads: int = 0
    read_retry_backoff_us: float = 0.0
    program_failures: int = 0
    erase_failures: int = 0
    bad_blocks_retired: int = 0
    spare_blocks_consumed: int = 0
    remap_migrated_slots: int = 0
    recoveries: int = 0

    def reset(self) -> None:
        """Return every counter to its just-constructed value.

        Batch runners (the fleet executor, benchmark loops) reuse device
        objects across replays; this is the explicit guarantee that no
        statistic leaks from one replay into the next.
        """
        self.__init__()

    @property
    def fresh(self) -> bool:
        """True iff no replay has touched these stats yet.

        The fleet executor asserts this before every replay, so a device
        accidentally carrying stats across replays fails loudly instead
        of silently skewing fleet rows.
        """
        return vars(self) == vars(DeviceStats())

    def record_op_counts(self, kind: PageKind, reads: int = 0, programs: int = 0) -> None:
        """Accumulate per-kind read/program counters."""
        if reads:
            self.page_reads[kind] = self.page_reads.get(kind, 0) + reads
        if programs:
            self.page_programs[kind] = self.page_programs.get(kind, 0) + programs

    # -- derived metrics -------------------------------------------------------

    @property
    def fault_events(self) -> int:
        """Total injected faults observed (reads that needed correction,
        uncorrectable reads, and failed programs/erases)."""
        return (
            self.corrected_reads
            + self.uncorrectable_reads
            + self.program_failures
            + self.erase_failures
        )

    @property
    def mean_response_ms(self) -> float:
        """Mean response time (MRT), the paper's Fig. 8 metric."""
        if not self.response_us:
            return 0.0
        return sum(self.response_us) / len(self.response_us) / US_PER_MS

    @property
    def mean_service_ms(self) -> float:
        """Mean device service time, milliseconds."""
        if not self.service_us:
            return 0.0
        return sum(self.service_us) / len(self.service_us) / US_PER_MS

    @property
    def no_wait_ratio(self) -> float:
        """Fraction of requests served immediately on arrival (Table IV)."""
        return self.no_wait_requests / self.requests if self.requests else 0.0

    @property
    def space_utilization(self) -> float:
        """Data written / flash consumed by host writes (Fig. 9's metric).

        1.0 means no padding was ever written (4PS and HPS by construction);
        below 1.0 quantifies the pure-8KB scheme's waste on odd-page writes.
        """
        if self.flash_bytes_consumed == 0:
            return 1.0
        return self.data_bytes_written / self.flash_bytes_consumed

    @property
    def padding_bytes(self) -> int:
        """Flash consumed beyond the host data."""
        return self.flash_bytes_consumed - self.data_bytes_written

    @property
    def write_amplification(self) -> float:
        """(host + GC) programs over host programs, weighted by bytes."""
        host = self.flash_bytes_consumed
        if host == 0:
            return 1.0
        gc_bytes = 0
        for kind, programs in self.page_programs.items():
            gc_bytes += programs * kind.bytes
        # page_programs counts *all* programs incl. GC; host share is
        # flash_bytes_consumed, the rest is GC-induced.
        return gc_bytes / host if gc_bytes >= host else 1.0


def record_write_outcome(counters, outcome) -> None:
    """Apply one FTL write's flash bytes, GC collections and migrated slots.

    The one foreground-write accounting path.  ``counters`` is a
    :class:`DeviceStats` (host writes and RAM-buffer flushes alike) or the
    replay planner's per-trace deltas, which carry the same three fields.
    Host data bytes stay with the caller: a buffered write counts them
    once, when the buffer absorbs it.
    """
    counters.flash_bytes_consumed += outcome.flash_bytes
    counters.gc_collections += len(outcome.gc_results)
    counters.gc_migrated_slots += sum(
        result.migrated_slots for result in outcome.gc_results
    )
