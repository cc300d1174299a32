"""Platform hardware substrate: memories, bus, interrupts, PLD fabric."""

from repro.hw.bus import AhbBus, AhbTiming
from repro.hw.dma import INT_DMA_LINE, DmaDescriptor, DmaEngine
from repro.hw.dpram import DualPortRam
from repro.hw.fpga import (
    EPXA1_RESOURCES,
    EPXA4_RESOURCES,
    EPXA10_RESOURCES,
    PldFabric,
    PldResources,
)
from repro.hw.interrupts import InterruptController
from repro.hw.memory import Memory

__all__ = [
    "AhbBus",
    "AhbTiming",
    "DmaDescriptor",
    "DmaEngine",
    "DualPortRam",
    "INT_DMA_LINE",
    "InterruptController",
    "Memory",
    "PldFabric",
    "PldResources",
    "EPXA1_RESOURCES",
    "EPXA4_RESOURCES",
    "EPXA10_RESOURCES",
]
