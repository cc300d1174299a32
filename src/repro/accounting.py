"""Execution-time accounting: buckets, counters and measurements.

§4.1: "three components of the execution time are measured: (1)
hardware execution time (time spent in the coprocessor and in the IMU
...), (2) software execution time for the dual-port RAM management
..., and (3) software execution time for the IMU management".  Every
modelled CPU charge in the library is tagged with one of these
buckets (plus ``SW_OTHER`` for OS plumbing and ``SW_APP`` for
pure-software compute), so the paper's decomposition falls out of the
measurements instead of being reconstructed afterwards.

:class:`Measurement` holds that decomposition (the paper folds
``sw_other`` into its bars) and the event counters the analysis layer
reads.  This module sits below both of its users: the OS kernel
charges modelled CPU time into a measurement, and the ``core``
runners create one per execution and read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ReproError
from repro.sim.time import to_ms


class Bucket(Enum):
    """Accounting buckets for modelled CPU time.

    Members are singletons compared by identity, so they hash by
    identity too: ``object.__hash__`` runs in C, where ``Enum``'s own
    ``__hash__`` is a Python call, and every modelled charge hashes a
    bucket twice.
    """

    __hash__ = object.__hash__

    #: Dual-port RAM management: user-space <-> DP-RAM copies.
    SW_DP = "sw_dp"
    #: IMU management: fault decode, AR/SR/CR traffic, TLB updates.
    SW_IMU = "sw_imu"
    #: Everything else the OS does: syscalls, IRQ entry, wakeups.
    SW_OTHER = "sw_other"
    #: Application-level software compute (the pure-SW version).
    SW_APP = "sw_app"


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
