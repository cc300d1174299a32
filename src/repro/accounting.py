"""CPU-time accounting buckets and per-tenant statistics.

The paper decomposes VIM-based execution time into hardware time plus
two software components (§4.1): dual-port-RAM management and IMU
management.  Every modelled CPU charge in the library is tagged with
one of these buckets (plus ``SW_OTHER`` for OS plumbing and ``SW_APP``
for pure-software compute), so the paper's decomposition falls out of
the measurements instead of being reconstructed afterwards.

Multi-tenant runs (several coprocessor sessions contending for one
DP-RAM, see :mod:`repro.core.tenancy`) additionally need the same
decomposition *per tenant*: who faulted, who evicted whom, and who
lost resident pages to a neighbour.  :class:`TenantStats` is that
record.

This lives in its own module because the hardware-facing measurement
layer, the OS cost model, and the tenancy layer all need it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


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
class TenantStats:
    """Per-tenant fault/eviction/steal accounting of a contended run.

    One record per tenant process of a multi-tenant execution.  The
    eviction numbers distinguish the two sides of contention:
    ``steals`` counts evictions *this* tenant performed on pages owned
    by another tenant, while ``pages_lost`` counts this tenant's own
    resident pages that a neighbour evicted.  In a solo run both are
    zero and ``evictions`` degenerates to the classic single-process
    count.
    """

    asid: int
    name: str
    #: FPGA_EXECUTE calls completed by this tenant.
    executions: int = 0
    #: Times the scheduler dispatched this tenant's process.
    dispatches: int = 0
    #: Page faults serviced while this tenant was executing.
    page_faults: int = 0
    #: Evictions this tenant's faults triggered (any victim).
    evictions: int = 0
    #: Evictions of *another* tenant's page, performed by this tenant.
    steals: int = 0
    #: This tenant's resident pages evicted by other tenants.
    pages_lost: int = 0
    #: Dirty-page copies back to this tenant's user space.
    writebacks: int = 0
    #: Fabric reconfigurations paid when this tenant took the PLD over.
    reconfigurations: int = 0
    #: Modelled end-to-end CPU+HW time charged to this tenant (ms).
    total_ms: float = 0.0
