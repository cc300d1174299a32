"""Waveform capture and ASCII timing diagrams.

Figure 7 of the paper is a timing diagram of one coprocessor read
access (clk, cp_addr, cp_access, cp_tlbhit, cp_din) showing data ready
on the fourth rising edge.  :class:`WaveformProbe` records signal
changes against simulated time, and :func:`render_cycles` reproduces
the diagram as a cycle-by-cycle table.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.signal import Signal


@dataclass
class SignalTrace:
    """Change history of one signal: parallel (times, values) lists."""

    name: str
    width: int
    times: list[int] = field(default_factory=list)
    values: list[int] = field(default_factory=list)

    def record(self, time_ps: int, value: int) -> None:
        """Append a change (monotonic times; same-time overwrites)."""
        if self.times and time_ps < self.times[-1]:
            raise SimulationError(
                f"trace {self.name!r}: time went backwards "
                f"({time_ps} < {self.times[-1]})"
            )
        if self.times and time_ps == self.times[-1]:
            self.values[-1] = value
            return
        self.times.append(time_ps)
        self.values.append(value)

    def value_at(self, time_ps: int) -> int:
        """The signal value at *time_ps* (last change at or before it)."""
        index = bisect_right(self.times, time_ps) - 1
        if index < 0:
            raise SimulationError(
                f"trace {self.name!r}: no value recorded at or before {time_ps}"
            )
        return self.values[index]


class WaveformProbe:
    """Records change histories for a set of signals.

    The probe timestamps changes with the engine's clock (signal
    setters do not know simulation time), so it must be attached before
    the activity of interest and the engine must be the one driving it.
    """

    def __init__(self, engine: Engine, signals: list[Signal]) -> None:
        self.engine = engine
        self.traces: dict[str, SignalTrace] = {}
        self._signals = list(signals)
        for signal in self._signals:
            trace = SignalTrace(signal.name, signal.width)
            trace.record(engine.now, signal.value)
            self.traces[signal.name] = trace
            signal.observe(self._on_change)

    def _on_change(self, signal: Signal, value: int) -> None:
        self.traces[signal.name].record(self.engine.now, value)

    def detach(self) -> None:
        """Stop recording."""
        for signal in self._signals:
            signal.unobserve(self._on_change)

    def trace(self, name: str) -> SignalTrace:
        """The trace of signal *name* (full dotted name)."""
        try:
            return self.traces[name]
        except KeyError:
            raise SimulationError(
                f"no trace for {name!r}; have {sorted(self.traces)}"
            ) from None


def render_cycles(
    probe: WaveformProbe,
    start_ps: int,
    period_ps: int,
    num_cycles: int,
    signals: list[str] | None = None,
) -> str:
    """Render a cycle-by-cycle table of sampled signal values.

    Values are sampled just after each rising edge (``start_ps +
    k * period_ps``), which is what a timing diagram shows.  Single-bit
    signals render as high/low bars; buses render in hex.
    """
    if num_cycles < 1 or period_ps < 1:
        raise SimulationError("need at least one cycle and a positive period")
    names = signals if signals is not None else sorted(probe.traces)
    name_width = max(len("edge"), max((len(n) for n in names), default=4))
    cell = 6
    header = "edge".ljust(name_width) + "".join(
        f"{k + 1:>{cell}}" for k in range(num_cycles)
    )
    lines = [header]
    for name in names:
        trace = probe.trace(name)
        cells = []
        for k in range(num_cycles):
            value = trace.value_at(start_ps + k * period_ps)
            if trace.width == 1:
                cells.append(("███" if value else "▁▁▁").rjust(cell))
            else:
                cells.append(f"{value:>{cell}x}")
        lines.append(name.ljust(name_width) + "".join(cells))
    return "\n".join(lines)
