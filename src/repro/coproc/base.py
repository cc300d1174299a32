"""Portable coprocessor framework.

A coprocessor core is written as a Python generator: **each ``yield``
is one rising edge of the core's clock**, playing the role of one state
of the VHDL finite state machine in Figure 5.  The helpers below yield
*waits* instead of runs of bare edges: ``compute(n)`` one wait for the
core's *n*-th edge, an access one wait for the first edge after
``CP_TLBHIT`` rises.  The core's clock domain counts the edges in
between instead of running them.  Cores interact with the
outside world only through the CP_* port helpers below, so — like the
paper's VHDL cores — they contain *no physical address and no knowledge
of the interface memory size*, and run unchanged against:

* an :class:`~repro.imu.imu.Imu` (the VIM-based system),
* a :class:`~repro.imu.direct.DirectInterface` (the typical,
  hand-integrated baseline).

The paper's elementary example (Figure 5) looks like this here::

    class VectorAdd(Coprocessor):
        def behavior(self):
            n = yield from self.read_param(0)
            yield from self.release_params()
            for i in range(n):
                a = yield from self.read(0, 4 * i)       # object A[]
                b = yield from self.read(1, 4 * i)       # object B[]
                yield from self.write(2, 4 * i, a + b)   # object C[]

No address calculation, no memory-size knowledge — the properties §3.4
calls out.
"""

from __future__ import annotations

from typing import Generator

from repro.coproc.ports import DATA_BITS, PARAM_OBJECT, CoprocessorPorts
from repro.errors import CoprocessorError
from repro.sim.clock import UNTIL_WOKEN, Clocked

#: Generator type produced by coprocessor behaviours.  A behaviour
#: yields None for one edge, an int *n* for the *n*-th edge from now,
#: or :data:`TLBHIT` for the first edge after CP_TLBHIT rises.
Behavior = Generator[object, None, None]

#: Wait token: sleep until CP_TLBHIT rises, resume on the first edge
#: after the rise.
TLBHIT = object()

_DATA_MASK = (1 << DATA_BITS) - 1


class Coprocessor(Clocked):
    """Base class of all coprocessor cores.

    Subclasses implement :meth:`behavior` as a generator and may use
    the ``read`` / ``write`` / ``read_param`` / ``compute`` helpers.
    The core is *bound* to an interface (IMU or direct wrapper) when the
    system is assembled, then driven by :meth:`tick`: one generator step
    per clock edge, except on the edges of a wait, which only count.
    """

    #: Human-readable core name (subclasses override).
    name = "coprocessor"

    def __init__(self) -> None:
        self.ports: CoprocessorPorts | None = None
        self.iface = None
        self._gen: Behavior | None = None
        self.started = False
        self.finished = False
        self.cycles = 0
        # Edges left in a compute wait, and whether the core waits for
        # CP_TLBHIT.
        self._wait = 0
        self._hit_wait = False

    # -- wiring ---------------------------------------------------------

    def bind(self, iface) -> None:
        """Attach the core to an interface's port bundle."""
        self.iface = iface
        self.ports = iface.ports
        self.ports.cp_tlbhit.observe(self._tlbhit_changed)

    def _tlbhit_changed(self, _signal, value: int) -> None:
        if value and self._hit_wait:
            # wake(), inlined: this runs on every access.
            waker = self._waker
            if waker is not None:
                waker()

    def _require_ports(self) -> CoprocessorPorts:
        if self.ports is None:
            raise CoprocessorError(f"core {self.name!r} is not bound to an interface")
        return self.ports

    # -- clocked behaviour -----------------------------------------------

    def tick(self) -> int:
        """One rising edge of the core clock.

        The core idles until ``CP_START``; afterwards each edge advances
        the behaviour generator by one step, unless the core is in a
        wait, whose edges only count.  Exhaustion of the generator
        asserts ``CP_FIN`` automatically.  Returns the edges until the
        next one the core needs (:class:`~repro.sim.clock.Clocked`).
        """
        ports = self.ports
        if ports is None:
            ports = self._require_ports()
        if self.finished:
            return UNTIL_WOKEN
        if not self.started:
            if not ports.cp_start.value:
                return 1
            self.started = True
            self._gen = self.behavior()
        self.cycles += 1
        if self._wait:
            self._wait -= 1
            return self._wait + 1
        if self._hit_wait:
            if not ports.cp_tlbhit.value:
                return UNTIL_WOKEN
            self._hit_wait = False
        try:
            wait = next(self._gen)  # type: ignore[arg-type]
        except StopIteration:
            self.finish()
            return UNTIL_WOKEN
        if wait is None:
            return 1
        if wait is TLBHIT:
            # Sleep until CP_TLBHIT rises.  A high line still belongs to
            # the previous access: the interface drops it when it
            # detects the request and raises it when the access fires.
            self._hit_wait = True
            return UNTIL_WOKEN
        self._wait = wait - 1
        return wait

    def idle(self, edges: int) -> None:
        """Account *edges* core edges of a wait."""
        if self.started and not self.finished:
            self.cycles += edges
            if self._wait:
                self._wait -= edges

    def behavior(self) -> Behavior:
        """The core FSM; subclasses must override."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for type checkers

    def reset(self) -> None:
        """Return the core to its pre-start state (new execution)."""
        self._gen = None
        self.started = False
        self.finished = False
        self.cycles = 0
        self._wait = 0
        self._hit_wait = False
        self.wake()

    def finish(self) -> None:
        """Assert CP_FIN, signalling end of operation to the interface."""
        self.finished = True
        self._require_ports().cp_fin.set(1)

    # -- interface helpers (generators: cost is in core clock cycles) ----

    def read(
        self, obj: int, addr: int, size: int = 4
    ) -> Generator[object, None, int]:
        """Read ``size`` bytes at byte address *addr* of object *obj*.

        The helper issues the request, then sleeps until ``CP_TLBHIT``
        rises and resumes on the first core edge after the rise; a TLB
        miss therefore stalls the core here, without the core being
        aware of it — the paper's stall mechanism.
        """
        ports = self._require_ports()
        ports.issue(obj, addr, write=False, size=size)
        yield TLBHIT
        data = ports.cp_din.value
        ports.retire()
        return data

    def write(
        self, obj: int, addr: int, value: int, size: int = 4
    ) -> Generator[object, None, None]:
        """Write ``size`` bytes of *value* at byte address *addr*."""
        ports = self._require_ports()
        ports.issue(obj, addr, write=True, data=value & _DATA_MASK, size=size)
        yield TLBHIT
        ports.retire()

    def read_param(self, index: int) -> Generator[object, None, int]:
        """Read scalar parameter *index*.

        On an IMU, parameters live in the designated parameter-passing
        page (object :data:`~repro.coproc.ports.PARAM_OBJECT`); on a
        direct interface they come from driver-loaded registers — the
        typical system's ad-hoc equivalent.
        """
        param_regs = getattr(self.iface, "param_regs", None)
        if param_regs is not None:
            yield  # one cycle to latch the register
            try:
                return param_regs[index]
            except IndexError as exc:
                raise CoprocessorError(
                    f"core {self.name!r}: parameter {index} not loaded"
                ) from exc
        value = yield from self.read(PARAM_OBJECT, index * 4, 4)
        return value

    def release_params(self) -> Generator[object, None, None]:
        """Declare the parameter page consumed (§3.2).

        "When the parameters are read, the coprocessor ... invalidates
        the parameter-passing page, in this way making it available for
        data mapping purposes."  No-op on a direct interface.
        """
        if getattr(self.iface, "param_regs", None) is not None:
            return
            yield  # pragma: no cover
        self._require_ports().cp_param_done.set(1)
        yield

    def compute(self, cycles: int) -> Generator[object, None, None]:
        """Model *cycles* clock cycles of datapath computation.

        One wait: the code after it runs on the core's *cycles*-th edge
        from the one that started it.
        """
        if cycles > 0:
            yield cycles
