"""Execution drivers for the three system versions of the paper.

Figure 3 compares three versions of one application:

* **pure software** — :func:`run_software`: the reference computation
  on the 133 MHz ARM, costed by the app's cycle model;
* **typical coprocessor** — :func:`run_typical`: programmer-managed
  DP-RAM layout through a :class:`~repro.imu.direct.DirectInterface`;
  fails with :class:`~repro.errors.CapacityError` when the working set
  exceeds the physical memory (Figure 9: "exceeds available memory");
* **VIM-based coprocessor** — :func:`run_vim`: the full virtualised
  path (syscalls, IMU, page faults, end-of-operation flush).

All three return a :class:`RunResult` carrying the produced output
bytes and the time decomposition, so benchmarks can both check
functional equivalence and plot the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.accounting import Measurement
from repro.coproc.bitstream import Bitstream
from repro.errors import CapacityError, VimError
from repro.imu.direct import DirectInterface
from repro.core.system import System
from repro.os.costs import Bucket
from repro.os.vim.objects import Direction


@dataclass(frozen=True)
class ObjectSpec:
    """One dataset of a workload (becomes an FPGA_MAP_OBJECT call)."""

    obj_id: int
    name: str
    direction: Direction
    size: int
    data: bytes | None = None

    def __post_init__(self) -> None:
        if self.direction & Direction.IN and self.data is None:
            raise VimError(f"object {self.name!r} is IN but has no data")
        if self.data is not None and len(self.data) != self.size:
            raise VimError(
                f"object {self.name!r}: data length {len(self.data)} "
                f"!= size {self.size}"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete, platform-independent workload description."""

    name: str
    bitstream: Bitstream
    objects: tuple[ObjectSpec, ...]
    params: tuple[int, ...]
    sw_cycles: int
    reference: Callable[[], dict[int, bytes]]

    @property
    def total_bytes(self) -> int:
        """Working-set size across all objects."""
        return sum(spec.size for spec in self.objects)

    def output_specs(self) -> list[ObjectSpec]:
        """The objects the coprocessor produces."""
        return [s for s in self.objects if s.direction & Direction.OUT]


@dataclass
class RunResult:
    """Outputs and measurements of one execution."""

    workload: WorkloadSpec
    version: str
    measurement: Measurement
    outputs: dict[int, bytes] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        """End-to-end time in milliseconds."""
        return self.measurement.total_ms

    def verify(self) -> None:
        """Check outputs against the software reference (bit-exact)."""
        verify_outputs(
            f"{self.workload.name}/{self.version}",
            self.workload.reference(),
            self.outputs,
        )


def verify_outputs(
    name: str, expected: dict[int, bytes], outputs: dict[int, bytes]
) -> None:
    """Check *outputs* against a reference, object by object, bit-exact.

    Raises :class:`VimError` naming the first differing byte (or the
    length mismatch) — shared by :meth:`RunResult.verify` and the
    multi-tenant executor's per-execution check.  An empty reference
    is refused too: it would pass any outputs unchecked.
    """
    if not expected:
        raise VimError(f"{name}: no reference outputs to verify against")
    for obj_id, want in expected.items():
        got = outputs.get(obj_id)
        if got is None:
            raise VimError(f"{name}: no output for object {obj_id}")
        if got != want:
            first_bad = next(
                (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)),
            )
            raise VimError(
                f"{name}: output object {obj_id} differs from reference "
                f"at byte {first_bad} (got {len(got)} bytes, "
                f"want {len(want)})"
            )


def run_software(system: System, workload: WorkloadSpec) -> RunResult:
    """The pure-software version, costed on the ARM."""
    measurement = Measurement(name=f"{workload.name}/sw")
    system.kernel.attach_measurement(measurement)
    try:
        outputs = workload.reference()
        system.kernel.spend(workload.sw_cycles, Bucket.SW_APP)
    finally:
        system.kernel.detach_measurement()
    return RunResult(workload, "software", measurement, outputs)


def run_vim(system: System, workload: WorkloadSpec, **options) -> RunResult:
    """The VIM-based version: the paper's full virtualised path.

    The IMU's synchroniser latency comes from the bitstream: zero for
    single-domain designs, :attr:`Imu.CDC_SYNC_CYCLES` when the core
    and IMU clocks differ (the IDEA system's stall-based
    synchronisation).

    Implemented as a one-shot :class:`~repro.core.session.
    CoprocessorSession` through an unshared :class:`~repro.core.session.
    VirtualInterface` built from *options*, its other keyword arguments
    (the replacement policy, transfer mode, IMU timing, prefetcher, TLB
    capacity, or a trace *recorder* that captures the run's per-access
    address stream); applications that call the coprocessor repeatedly
    should hold a session open instead.
    """
    from repro.core.session import CoprocessorSession, VirtualInterface

    interface = VirtualInterface(system, shared=False, **options)
    session = CoprocessorSession(
        system, workload.bitstream, interface, process_name=workload.name
    )
    try:
        for spec in workload.objects:
            session.map_object(
                spec.obj_id, spec.name, spec.size, spec.direction, data=spec.data
            )
        result = session.execute(
            list(workload.params), label=f"{workload.name}/vim"
        )
    finally:
        session.close()
    return RunResult(workload, "vim", result.measurement, result.outputs)


def run_typical(system: System, workload: WorkloadSpec) -> RunResult:
    """The typical (non-virtualised) coprocessor version.

    The driver lays objects out at fixed DP-RAM offsets, copies inputs
    in, runs the core, and copies outputs back — the Figure 3 middle
    version, without chunking.  Raises :class:`CapacityError` when the
    working set does not fit the physical memory.
    """
    kernel = system.kernel
    measurement = Measurement(name=f"{workload.name}/typical")
    if workload.total_bytes > system.dpram.size:
        raise CapacityError(
            f"{workload.name}: working set of {workload.total_bytes} bytes "
            f"exceeds available memory ({system.dpram.size} bytes DP-RAM)"
        )
    iface = DirectInterface(system.dpram)
    core = workload.bitstream.build_core()
    core.bind(iface)
    domains = system.build_clock_domains(workload.bitstream, iface, core)
    kernel.attach_measurement(measurement)
    try:
        # Programmer-managed layout: objects packed in id order.
        offset = 0
        layout: dict[int, int] = {}
        for spec in sorted(workload.objects, key=lambda s: s.obj_id):
            layout[spec.obj_id] = offset
            iface.set_object_window(spec.obj_id, offset, spec.size)
            offset += spec.size
        for spec in workload.objects:
            if spec.data is not None:
                system.dpram.write(layout[spec.obj_id], spec.data)
                kernel.spend(kernel.costs.copy_cycles(spec.size), Bucket.SW_DP)
                system.bus.record(spec.size)
        iface.param_regs = list(workload.params)
        iface.start_coprocessor()
        deadline = (
            system.engine.now
            + system.fabric_ticks_limit(workload.total_bytes)
            * workload.bitstream.iface_frequency.period_ps
        )
        System.start_clocks(domains)
        hw_start = system.engine.now
        system.engine.run_until(lambda: iface.done, max_time_ps=deadline)
        measurement.add_hw(system.engine.now - hw_start)
        System.stop_clocks(domains)
        outputs = {}
        for spec in workload.output_specs():
            outputs[spec.obj_id] = system.dpram.read(layout[spec.obj_id], spec.size)
            kernel.spend(kernel.costs.copy_cycles(spec.size), Bucket.SW_DP)
            system.bus.record(spec.size)
    finally:
        kernel.detach_measurement()
        System.stop_clocks(domains)
    return RunResult(workload, "typical", measurement, outputs)
