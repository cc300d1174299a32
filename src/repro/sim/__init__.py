"""Discrete-event simulation substrate (engine, clocks, signals, time)."""

from repro.sim.clock import UNTIL_WOKEN, ClockDomain, Clocked
from repro.sim.engine import Engine
from repro.sim.signal import Signal, SignalBundle
from repro.sim.time import (
    PS_PER_MS,
    PS_PER_NS,
    PS_PER_S,
    PS_PER_US,
    Frequency,
    mhz,
    ms,
    ns,
    to_ms,
    to_ns,
    to_us,
    us,
)

__all__ = [
    "ClockDomain",
    "Clocked",
    "UNTIL_WOKEN",
    "Engine",
    "Signal",
    "SignalBundle",
    "Frequency",
    "mhz",
    "ms",
    "ns",
    "us",
    "to_ms",
    "to_ns",
    "to_us",
    "PS_PER_MS",
    "PS_PER_NS",
    "PS_PER_S",
    "PS_PER_US",
]
