"""CPU-time accounting buckets.

The paper decomposes VIM-based execution time into hardware time plus
two software components (§4.1): dual-port-RAM management and IMU
management.  Every modelled CPU charge in the library is tagged with
one of these buckets (plus ``SW_OTHER`` for OS plumbing and ``SW_APP``
for pure-software compute), so the paper's decomposition falls out of
the measurements instead of being reconstructed afterwards.

This lives in its own module because the hardware-facing measurement
layer and the OS cost model both need it.
"""

from __future__ import annotations

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

