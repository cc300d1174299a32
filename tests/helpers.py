"""Test helpers: a scriptable coprocessor core and interface rigs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coproc.base import Behavior, Coprocessor
from repro.hw.dpram import DualPortRam
from repro.hw.interrupts import InterruptController
from repro.imu.direct import DirectInterface
from repro.imu.imu import Imu
from repro.sim.clock import ClockDomain
from repro.sim.engine import Engine
from repro.sim.time import mhz


class ScriptCore(Coprocessor):
    """A core that executes a scripted list of interface operations.

    Operations (tuples): ``("read", obj, addr[, size])``,
    ``("write", obj, addr, value[, size])``, ``("compute", cycles)``,
    ``("param", index)``, ``("release_params",)``.  Results and the
    core-cycle stamp of each completed op are recorded for assertions.
    """

    name = "script"

    def __init__(self, script: list[tuple]) -> None:
        super().__init__()
        self.script = script
        self.results: list[int | None] = []
        self.stamps: list[int] = []

    def behavior(self) -> Behavior:
        for op in self.script:
            kind = op[0]
            if kind == "read":
                obj, addr = op[1], op[2]
                size = op[3] if len(op) > 3 else 4
                value = yield from self.read(obj, addr, size)
                self.results.append(value)
            elif kind == "write":
                obj, addr, value = op[1], op[2], op[3]
                size = op[4] if len(op) > 4 else 4
                yield from self.write(obj, addr, value, size)
                self.results.append(None)
            elif kind == "compute":
                yield from self.compute(op[1])
                self.results.append(None)
            elif kind == "param":
                value = yield from self.read_param(op[1])
                self.results.append(value)
            elif kind == "release_params":
                yield from self.release_params()
                self.results.append(None)
            else:  # pragma: no cover - script author error
                raise ValueError(f"unknown op {kind!r}")
            self.stamps.append(self.cycles)


@dataclass
class ImuRig:
    """An IMU + scripted core on a single 40 MHz clock domain."""

    engine: Engine
    interrupts: InterruptController
    dpram: DualPortRam
    imu: Imu
    core: ScriptCore
    domain: ClockDomain
    extra_domains: list[ClockDomain] = field(default_factory=list)

    def run(self, until=None, max_cycles: int = 20_000) -> None:
        """Start the core and run until *until()* (default: finished)."""
        predicate = until or (lambda: self.core.finished)
        self.imu.start_coprocessor()
        for domain in [self.domain, *self.extra_domains]:
            if not domain.running:
                domain.start()
        self.engine.run_until(
            predicate, max_time_ps=self.engine.now + max_cycles * self.domain.period_ps
        )
        for domain in [self.domain, *self.extra_domains]:
            domain.stop()


def make_imu_rig(
    script: list[tuple],
    access_cycles: int = 4,
    pipelined: bool = False,
    sync_cycles: int = 0,
    core_mhz: float | None = None,
    imu_mhz: float = 40.0,
    tlb_capacity: int | None = None,
    core_type: type[ScriptCore] = ScriptCore,
) -> ImuRig:
    """Build an engine + IMU + scripted core rig.

    With ``core_mhz`` unset, core and IMU share one domain (IMU ticked
    first, as in the real single-domain designs); otherwise the core
    gets its own, slower domain.  *core_type* builds the core from the
    script.
    """
    engine = Engine()
    interrupts = InterruptController()
    dpram = DualPortRam()
    imu = Imu(
        dpram,
        interrupts,
        access_cycles=access_cycles,
        pipelined=pipelined,
        tlb_capacity=tlb_capacity,
    )
    # As CoprocessorSession.execute sets it before every execution.
    imu.sync_cycles = sync_cycles
    core = core_type(script)
    core.bind(imu)
    domain = ClockDomain(engine, "imu", mhz(imu_mhz))
    domain.attach(imu)
    extra = []
    if core_mhz is None:
        domain.attach(core)
    else:
        core_domain = ClockDomain(engine, "core", mhz(core_mhz))
        core_domain.attach(core)
        extra.append(core_domain)
    return ImuRig(engine, interrupts, dpram, imu, core, domain, extra)


def make_direct_rig(
    script: list[tuple],
) -> tuple[Engine, DualPortRam, DirectInterface, ScriptCore, ClockDomain]:
    """Build an engine + direct interface + scripted core rig."""
    engine = Engine()
    dpram = DualPortRam()
    iface = DirectInterface(dpram)
    core = ScriptCore(script)
    core.bind(iface)
    domain = ClockDomain(engine, "fabric", mhz(40.0))
    domain.attach(iface)
    domain.attach(core)
    return engine, dpram, iface, core, domain
