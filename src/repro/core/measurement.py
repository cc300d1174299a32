"""Execution-time measurement and decomposition.

§4.1: "three components of the execution time are measured: (1)
hardware execution time (time spent in the coprocessor and in the IMU
...), (2) software execution time for the dual-port RAM management
..., and (3) software execution time for the IMU management".

:class:`Measurement` reproduces that decomposition (plus an explicit
``sw_other`` bucket for syscall/IRQ/wakeup plumbing, which the paper
folds into its bars) and carries event counters used by the analysis
layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accounting import Bucket
from repro.errors import ReproError
from repro.sim.time import to_ms


@dataclass
class Counters:
    """Event counts collected during one execution."""

    page_faults: int = 0
    #: Faults serviced without moving data: the page was resident but
    #: its translation had been displaced (TLB smaller than the frame
    #: count).  Split from ``page_faults`` so the §4.1 decomposition is
    #: not inflated by translation churn.
    tlb_refills: int = 0
    compulsory_loads: int = 0
    evictions: int = 0
    #: Evictions whose victim page belonged to another tenant (only
    #: non-zero in shared-interface multi-tenant runs).
    steals: int = 0
    writebacks: int = 0
    prefetches: int = 0
    interrupts: int = 0
    #: Page movements performed by DMA descriptor instead of CPU copy.
    dma_transfers: int = 0
    bytes_to_dpram: int = 0
    bytes_from_dpram: int = 0
    tlb_lookups: int = 0
    tlb_hits: int = 0


@dataclass
class Measurement:
    """Time decomposition (picoseconds) and counters for one run."""

    name: str = "run"
    hw_ps: int = 0
    buckets: dict[Bucket, int] = field(
        default_factory=lambda: {bucket: 0 for bucket in Bucket}
    )
    counters: Counters = field(default_factory=Counters)

    def charge(self, bucket: Bucket, ps: int) -> None:
        """Account *ps* picoseconds of CPU time to *bucket*."""
        if ps < 0:
            raise ReproError(f"negative charge {ps} ps to {bucket}")
        self.buckets[bucket] += ps

    def add_hw(self, ps: int) -> None:
        """Account *ps* picoseconds of coprocessor/IMU hardware time."""
        if ps < 0:
            raise ReproError(f"negative hardware time {ps} ps")
        self.hw_ps += ps

    # -- views ----------------------------------------------------------

    @property
    def sw_dp_ps(self) -> int:
        """OS time managing the dual-port RAM (copies)."""
        return self.buckets[Bucket.SW_DP]

    @property
    def sw_imu_ps(self) -> int:
        """OS time managing the IMU (fault decode, TLB updates)."""
        return self.buckets[Bucket.SW_IMU]

    @property
    def sw_other_ps(self) -> int:
        """OS plumbing time (syscalls, IRQ entry/exit, wakeups)."""
        return self.buckets[Bucket.SW_OTHER]

    @property
    def sw_app_ps(self) -> int:
        """Application software compute time (pure-SW runs)."""
        return self.buckets[Bucket.SW_APP]

    @property
    def total_ps(self) -> int:
        """End-to-end execution time."""
        return self.hw_ps + sum(self.buckets.values())

    @property
    def total_ms(self) -> float:
        """End-to-end execution time in milliseconds."""
        return to_ms(self.total_ps)

    def fraction(self, bucket: Bucket) -> float:
        """Share of total time spent in *bucket* (0.0 if total is 0)."""
        total = self.total_ps
        return self.buckets[bucket] / total if total else 0.0

    def speedup_over(self, other: "Measurement") -> float:
        """How much faster this run is than *other* (other/self)."""
        if self.total_ps == 0:
            raise ReproError(f"run {self.name!r} has zero duration")
        return other.total_ps / self.total_ps
