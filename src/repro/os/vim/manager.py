"""The Virtual Interface Manager.

The VIM is the OS half of the paper's contribution — "implemented as a
Linux kernel module tuned to the hardware characteristics of the
particular system" (§4).  It owns the DP-RAM frame allocator and
services the two IMU interrupt causes of §3.3:

**Page fault** — "the coprocessor attempted an access of a dataset
part not currently in the dual-port memory.  The OS rearranges the
current mapping ... It may happen that all pages are in use and in this
case a page is selected for eviction.  If the page is dirty its
contents are copied back to the user-space memory and the page is newly
allocated for the missing data ... Afterward, the OS allows the IMU to
restart the translation and lets the coprocessor exit from the stalled
state."

**End of operation** — "The interface manager copies back to user
space all the dirty data currently residing in the dual-port memory."

Transfer modes
--------------
§4.1 admits that "our simple implementation ... makes two transfers
each time a page is loaded or unloaded from the dual-port memory" (via
an intermediate kernel buffer) and that the authors were removing the
limitation.  ``TransferMode.DOUBLE`` reproduces the measured system;
``TransferMode.SINGLE`` is the announced improvement; ``TransferMode.
DMA`` goes one step further and moves pages by descriptor on the
modelled :class:`~repro.hw.dma.DmaEngine`.  All three are benchmarked
in ``benchmarks/bench_ablation_transfers.py``; every copy path in this
module routes through one :class:`~repro.os.vim.transfer.
TransferEngine`, where the whole copy cost model lives.
"""

from __future__ import annotations

from repro.coproc.ports import PARAM_OBJECT, obj_asid, obj_local, tag_obj
from repro.errors import VimError
from repro.hw.bus import AhbBus
from repro.hw.dma import DmaEngine
from repro.hw.dpram import DualPortRam
from repro.imu.imu import Imu
from repro.imu.tlb import TlbEntry
from repro.os.costs import Bucket
from repro.os.kernel import Kernel
from repro.os.process import Process
from repro.os.vim.allocator import FrameAllocator
from repro.os.vim.objects import MappedObject
from repro.os.vim.policies import ReplacementPolicy, VictimContext, make_policy
from repro.os.vim.prefetch import Prefetcher, SequentialPrefetcher
from repro.os.vim.transfer import TransferMode, make_transfer_engine

__all__ = ["TransferMode", "Vim"]

#: Prefetcher used for objects mapped with the STREAM hint when no
#: global prefetcher is configured.  The hint is an explicit promise of
#: sequential access, so speculative eviction is authorised.
_STREAM_HINT_PREFETCHER = SequentialPrefetcher(depth=1, aggressive=True)


class Vim:
    """Virtual Interface Manager kernel module."""

    def __init__(
        self,
        kernel: Kernel,
        dpram: DualPortRam,
        bus: AhbBus,
        imu: Imu,
        policy: ReplacementPolicy | str = "fifo",
        transfer_mode: TransferMode = TransferMode.DOUBLE,
        prefetcher: Prefetcher | None = None,
        eager_mapping: bool = True,
        shared: bool = False,
        dma: DmaEngine | None = None,
    ) -> None:
        self.kernel = kernel
        self.dpram = dpram
        self.bus = bus
        self.imu = imu
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        #: Informational only: the mode's behaviour lives entirely in
        #: ``self.transfer`` (built once below); mutating this does not
        #: change how pages move.
        self.transfer_mode = transfer_mode
        #: The board's DMA controller (None in bare test rigs; required
        #: for ``TransferMode.DMA`` and overlapped prefetching).
        self.dma = dma
        #: The one object every page movement is performed and charged
        #: through (see :mod:`repro.os.vim.transfer`).
        self.transfer = make_transfer_engine(transfer_mode, kernel, bus, dma)
        if (
            prefetcher is not None
            and getattr(prefetcher, "overlapped", False)
            and dma is None
        ):
            # Fail at construction, not mid-fault-service: an
            # overlapped prefetch is a DMA descriptor by definition.
            raise VimError(
                "an overlapped prefetcher needs a DMA engine wired in"
            )
        self.prefetcher = prefetcher
        self.eager_mapping = eager_mapping
        #: Multi-tenant mode: object ids carry an ASID tag, resident
        #: pages (and their translations) survive across executions of
        #: different processes, and eviction may cross tenant lines.
        self.shared = shared
        self.allocator = FrameAllocator(dpram.num_pages)
        self.objects: dict[int, MappedObject] = {}
        self.process: Process | None = None
        self.execution_done = False
        #: ASID of the execution currently being serviced (0 when
        #: single-tenant).
        self.active_asid = 0
        #: Per-victim-tenant count of resident pages evicted by *other*
        #: tenants (the victim side of `Counters.steals`).
        self.pages_lost: dict[int, int] = {}
        self._ctx = VictimContext(imu.tlb)
        # Pages that are resident but whose TLB entry was displaced by a
        # smaller-than-frame-count TLB; remembers their dirtiness so it
        # can be restored when the translation is reinstalled.
        self._shadow_dirty: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Service interface (called by the syscall layer)
    # ------------------------------------------------------------------

    def map_object(self, mapped: MappedObject) -> None:
        """Register a dataset (FPGA_MAP_OBJECT back end)."""
        if mapped.local_id == PARAM_OBJECT:
            raise VimError(f"object id {PARAM_OBJECT} is reserved for parameters")
        self.objects[mapped.obj_id] = mapped

    def tenant_objects(self, asid: int) -> list[MappedObject]:
        """The mapped objects owned by *asid* (all of them when 0)."""
        return [m for m in self.objects.values() if m.asid == asid]

    def release_tenant(self, asid: int) -> None:
        """Tear down one tenant: free its frames, entries and objects.

        Dirty pages are *not* written back — a closing session has
        already flushed its outputs at end of operation, so anything
        still marked dirty belongs to an execution that was abandoned.
        """
        for frame, owner in self.allocator.data_pages():
            if obj_asid(owner[0]) != asid:
                continue
            self.imu.tlb.invalidate(*owner)
            self._shadow_dirty.discard(owner)
            self.allocator.release(frame)
            self.policy.on_release(frame)
        self.imu.tlb.invalidate(tag_obj(asid, PARAM_OBJECT), 0)
        for obj_id in [g for g in self.objects if obj_asid(g) == asid]:
            del self.objects[obj_id]

    def setup_execution(self, params: list[int], process: Process) -> None:
        """FPGA_EXECUTE back end: map, pass parameters, start (§3.1)."""
        asid = process.pid if self.shared else 0
        tenant_objects = self.tenant_objects(asid)
        if not tenant_objects:
            raise VimError("FPGA_EXECUTE with no mapped objects")
        costs = self.kernel.costs
        self.process = process
        self.execution_done = False
        self.active_asid = asid
        if self.shared:
            # Tenant switch: point the IMU's CAM tag at the new address
            # space and reset the datapath, keeping resident
            # translations of every tenant live in the TLB.
            self.imu.asid = asid
            self.imu.reset(keep_tlb=True)
            self.kernel.spend(costs.imu_register_cycles, Bucket.SW_IMU)
        else:
            self.imu.reset()
            self.allocator.reset()
            self.policy.reset()
            self._shadow_dirty.clear()
        for mapped in tenant_objects:
            mapped.reset_for_execution()
        # Parameter-passing page: write the scalars, install its
        # translation so the coprocessor can fetch them.
        frame = self.allocator.allocate_free()
        if frame is None and self.shared:
            # A fully-resident DP-RAM at turn start: evict one data
            # page (possibly a neighbour's) to host the parameters.
            candidates = self._eviction_candidates()
            if candidates:
                victim = self.policy.victim(candidates, self._ctx)
                self._evict(victim)
                frame = victim
        if frame is None:
            raise VimError("no free frame for the parameter page")
        self.allocator.assign_param(frame)
        payload = b"".join(int(p).to_bytes(4, "little") for p in params)
        if len(payload) > self.dpram.page_size:
            raise VimError(
                f"{len(params)} parameters exceed the parameter page "
                f"({self.dpram.page_size} bytes)"
            )
        # The parameter page is a page movement like any other: the
        # transfer engine charges it per the active mode (two copies in
        # DOUBLE — through the same intermediate kernel buffer as data
        # pages) and stalls it behind a draining DMA burst if the bus
        # is held (a neighbour's end-of-operation flush, for example).
        self.transfer.param_copy(
            lambda: self.dpram.cpu_write_page(frame, payload), len(payload)
        )
        self._make_tlb_room(self.imu.tag(PARAM_OBJECT), 0)
        self.imu.tlb.insert(self.imu.tag(PARAM_OBJECT), 0, frame)
        self.kernel.spend(costs.tlb_update_cycles, Bucket.SW_IMU)
        if self.eager_mapping:
            self._eager_map(tenant_objects)
        self.imu.start_coprocessor()

    def _eager_map(self, tenant_objects: list[MappedObject]) -> None:
        """Pre-load the caller's pages into free frames, id order first.

        FPGA_EXECUTE "performs the mapping" before launching the
        coprocessor: datasets that fit the DP-RAM are fully resident and
        the execution completes without page faults — the paper's 2 KB
        adpcm case.  In shared mode pages already resident from an
        earlier turn are skipped (their translation is still live), and
        no eviction happens here — residents of other tenants are only
        displaced on demand, by actual faults.
        """
        ordered = sorted(
            tenant_objects, key=lambda m: (not m.pinned, m.obj_id)
        )
        for mapped in ordered:
            for vpage in range(mapped.num_pages(self.dpram.page_size)):
                if self.allocator.frame_of(mapped.obj_id, vpage) is not None:
                    continue
                frame = self.allocator.allocate_free()
                if frame is None:
                    return
                self._install_page(mapped, vpage, frame, compulsory=True)

    # ------------------------------------------------------------------
    # Interrupt service (registered on INT_PLD)
    # ------------------------------------------------------------------

    def handle_interrupt(self, line: int) -> None:
        """Classify and service an IMU interrupt (§3.3)."""
        costs = self.kernel.costs
        # Read SR to find the cause.
        self.kernel.spend(costs.imu_register_cycles, Bucket.SW_IMU)
        if self.imu.sr.fault:
            self._service_fault()
        elif self.imu.sr.done:
            self._service_done()
        else:
            raise VimError("IMU interrupt with neither fault nor done status")
        self.kernel.interrupts.clear(line)

    def _service_fault(self) -> None:
        costs = self.kernel.costs
        meas = self.kernel.measurement
        # Read AR and decode which (object, page) faulted.
        self.kernel.spend(
            costs.imu_register_cycles + costs.fault_decode_cycles, Bucket.SW_IMU
        )
        obj_id = self.imu.ar.obj
        addr = self.imu.ar.addr
        mapped = self.objects.get(obj_id)
        if mapped is None:
            raise VimError(
                f"coprocessor faulted on unmapped object {obj_id} "
                f"(address {addr:#x})"
            )
        if addr >= mapped.size:
            raise VimError(
                f"coprocessor access at {addr:#x} beyond object {obj_id} "
                f"size {mapped.size:#x}"
            )
        vpage = addr >> self.dpram.page_bits
        resident_frame = self.allocator.frame_of(mapped.obj_id, vpage)
        if resident_frame is not None:
            # TLB-only miss: the page is resident but its translation
            # was displaced (possible only when the TLB is smaller than
            # the frame count).  Reinstall the entry; no data moves —
            # so this is a *TLB refill*, not a page fault, and counting
            # it as one would inflate the §4.1 fault decomposition.
            meas.counters.tlb_refills += 1
            entry = self._install_translation(mapped, vpage, resident_frame)
            # The faulting access *is* a touch: refresh the usage
            # assist so a recency policy cannot victimise the frame the
            # coprocessor is about to retry (e.g. for a prefetch
            # eviction later in this same service).
            entry.last_used = self.imu.tlb.stats.lookups
            entry.referenced = True
            self.policy.on_touch(resident_frame)
        else:
            meas.counters.page_faults += 1
            self._bring_in(mapped, vpage)
        prefetcher = self._prefetcher_for(mapped)
        if prefetcher is not None:
            aggressive = getattr(prefetcher, "aggressive", False)
            overlapped = getattr(prefetcher, "overlapped", False)
            for target, target_vpage in prefetcher.suggest(
                mapped, vpage, self.dpram.page_size
            ):
                if self.allocator.frame_of(target.obj_id, target_vpage) is not None:
                    continue
                frame = self._reusable_free_frame()
                if frame is None and aggressive:
                    candidates = self._eviction_candidates()
                    if candidates:
                        victim = self.policy.victim(candidates, self._ctx)
                        self._evict(victim)
                        frame = victim
                if frame is None:
                    break
                self._install_page(
                    target,
                    target_vpage,
                    frame,
                    compulsory=False,
                    prefetch=True,
                    overlapped=overlapped,
                )
                meas.counters.prefetches += 1
        # Let the IMU retry the translation; the coprocessor unstalls.
        self.imu.restart_translation()
        self.kernel.spend(costs.imu_register_cycles, Bucket.SW_IMU)

    def _service_done(self) -> None:
        """End of operation: flush dirty pages, wake the caller.

        Only the finishing tenant's pages are flushed; a neighbour's
        dirty residents stay in the DP-RAM until their own end of
        operation (or until an eviction writes them back).  In DMA mode
        the flush is *double-buffered*: descriptors are queued and the
        caller is woken while they drain, so the next execution — the
        same tenant's or a neighbour's — starts immediately and any CPU
        copy it issues stalls behind the draining burst.
        """
        costs = self.kernel.costs
        for entry in self.imu.tlb.dirty_entries():
            if obj_local(entry.obj) == PARAM_OBJECT:
                continue
            if self.shared and obj_asid(entry.obj) != self.active_asid:
                continue
            mapped = self.objects.get(entry.obj)
            if mapped is None:
                raise VimError(f"dirty page for unmapped object {entry.obj}")
            self._write_back(mapped, entry.vpage, entry.ppage, flush=True)
            entry.dirty = False
        # Resident pages whose dirty TLB entry was displaced earlier.
        flushed = set()
        for obj_id, vpage in sorted(self._shadow_dirty):
            if self.shared and obj_asid(obj_id) != self.active_asid:
                continue
            frame = self.allocator.frame_of(obj_id, vpage)
            if frame is not None:
                self._write_back(self.objects[obj_id], vpage, frame, flush=True)
            flushed.add((obj_id, vpage))
        if self.shared:
            self._shadow_dirty -= flushed
        else:
            self._shadow_dirty.clear()
        if self.shared:
            # The parameters died with the execution; reclaim their
            # frame now so the next tenant's setup finds it free (the
            # single-tenant path gets this for free from its full
            # allocator reset).
            param_frame = self.allocator.param_frame()
            if param_frame is not None:
                self.imu.tlb.invalidate(self.imu.tag(PARAM_OBJECT), 0)
                self.allocator.release(param_frame)
                self.kernel.spend(costs.page_bookkeeping_cycles, Bucket.SW_OTHER)
        self.imu.acknowledge_done()
        self.kernel.spend(costs.imu_register_cycles, Bucket.SW_IMU)
        if self.process is not None:
            self.kernel.spend(costs.wakeup_cycles, Bucket.SW_OTHER)
            self.kernel.scheduler.wake(self.process)
        self.execution_done = True

    # ------------------------------------------------------------------
    # Page movement
    # ------------------------------------------------------------------

    def _reusable_free_frame(self) -> int | None:
        """A free frame, reclaiming the parameter frame once released."""
        frame = self.allocator.allocate_free()
        if frame is not None:
            return frame
        param_frame = self.allocator.param_frame()
        if param_frame is not None and self.imu.sr.param_released:
            self.allocator.release(param_frame)
            self.kernel.spend(
                self.kernel.costs.page_bookkeeping_cycles, Bucket.SW_OTHER
            )
            return param_frame
        return None

    def _prefetcher_for(self, mapped: MappedObject) -> Prefetcher | None:
        """The prefetcher in effect for *mapped* (hint-aware)."""
        if self.prefetcher is not None:
            return self.prefetcher
        if mapped.streaming:
            return _STREAM_HINT_PREFETCHER
        return None

    def _eviction_candidates(self) -> list[int]:
        """Data frames the policy may evict, in ascending frame order.

        The parameter frame and every frame of a pinned object are left
        out.  The order is part of the contract: ``random`` picks its
        victim by index into this list.
        """
        pinned = {
            obj_id for obj_id, mapped in self.objects.items() if mapped.pinned
        }
        return [
            frame
            for frame, (obj_id, _vpage) in self.allocator.data_pages()
            if obj_id not in pinned
        ]

    def _bring_in(self, mapped: MappedObject, vpage: int) -> None:
        """Make (mapped, vpage) resident, evicting if necessary."""
        if self.allocator.frame_of(mapped.obj_id, vpage) is not None:
            raise VimError(
                f"fault on already-resident page ({mapped.obj_id}, {vpage}); "
                "TLB and allocator are out of sync"
            )
        frame = self._reusable_free_frame()
        if frame is None:
            candidates = self._eviction_candidates()
            if not candidates:
                raise VimError(
                    "all DP-RAM pages are pinned; cannot service the fault "
                    f"for object {mapped.obj_id}"
                )
            victim = self.policy.victim(candidates, self._ctx)
            self._evict(victim)
            frame = victim
        self._install_page(mapped, vpage, frame, compulsory=False)

    def _install_page(
        self,
        mapped: MappedObject,
        vpage: int,
        frame: int,
        compulsory: bool,
        prefetch: bool = False,
        overlapped: bool = False,
    ) -> None:
        """Load (if needed) and map one page into *frame*.

        The copy is performed and charged by the transfer engine:
        demand loads block until the page is usable, compulsory
        (eager-mapping) loads may overlap coprocessor start in DMA
        mode, and an ``overlapped`` prefetch is queued as a DMA
        descriptor that drains concurrently with execution — the
        paper's envisioned prefetch win, at real descriptor cost
        instead of the retired free-copy idealisation.
        """
        costs = self.kernel.costs
        meas = self.kernel.measurement
        offset, length = mapped.page_span(vpage, self.dpram.page_size)
        if mapped.needs_load(vpage):
            def move() -> None:
                self.dpram.cpu_write_page(
                    frame, mapped.buffer.read(offset, length)
                )

            if prefetch:
                self.transfer.prefetch(move, length, overlapped)
            elif compulsory:
                self.transfer.preload(move, length)
            else:
                self.transfer.load(move, length)
            meas.counters.bytes_to_dpram += length
        else:
            # First touch of an output-only page: nothing to load; clear
            # the frame so stale bytes can never reach user space.
            self.dpram.cpu_write_page(frame, bytes(self.dpram.page_size))
        if compulsory:
            meas.counters.compulsory_loads += 1
        self.allocator.assign(frame, mapped.obj_id, vpage)
        self._install_translation(mapped, vpage, frame)
        self.kernel.spend(costs.page_bookkeeping_cycles, Bucket.SW_OTHER)
        self.policy.on_load(frame)

    def _make_tlb_room(self, obj_id: int, vpage: int) -> None:
        """Displace a TLB entry if inserting (obj_id, vpage) needs one.

        The victim is the least recently used non-parameter entry; its
        page stays resident, so its dirtiness is remembered for a later
        reinstall or write-back.
        """
        costs = self.kernel.costs
        tlb = self.imu.tlb
        if len(tlb) < tlb.capacity or tlb.probe(obj_id, vpage) is not None:
            return
        victims = [e for e in tlb.entries() if obj_local(e.obj) != PARAM_OBJECT]
        if not victims:
            raise VimError("TLB full of parameter entries; cannot displace")
        displaced = min(victims, key=lambda e: (e.last_used, e.ppage))
        if displaced.dirty:
            self._shadow_dirty.add((displaced.obj, displaced.vpage))
        tlb.invalidate(displaced.obj, displaced.vpage)
        self.kernel.spend(costs.tlb_update_cycles, Bucket.SW_IMU)

    def _install_translation(
        self, mapped: MappedObject, vpage: int, frame: int
    ) -> TlbEntry:
        """Write one TLB entry, displacing another if the TLB is full."""
        costs = self.kernel.costs
        tlb = self.imu.tlb
        key = (mapped.obj_id, vpage)
        self._make_tlb_room(*key)
        entry = tlb.insert(mapped.obj_id, vpage, frame)
        if key in self._shadow_dirty:
            entry.dirty = True
            self._shadow_dirty.discard(key)
        self.kernel.spend(costs.tlb_update_cycles, Bucket.SW_IMU)
        return entry

    def _evict(self, frame: int) -> None:
        """Evict the data page hosted by *frame* (write back if dirty)."""
        costs = self.kernel.costs
        meas = self.kernel.measurement
        owner = self.allocator.owner_of(frame)
        if owner is None:
            raise VimError(f"evicting frame {frame} which holds no data page")
        obj_id, vpage = owner
        mapped = self.objects[obj_id]
        entry = self.imu.tlb.probe(obj_id, vpage)
        dirty = entry.dirty if entry is not None else (obj_id, vpage) in self._shadow_dirty
        if dirty:
            self._write_back(mapped, vpage, frame)
        self._shadow_dirty.discard((obj_id, vpage))
        if entry is not None:
            self.imu.tlb.invalidate(obj_id, vpage)
            self.kernel.spend(costs.tlb_update_cycles, Bucket.SW_IMU)
        self.allocator.release(frame)
        self.policy.on_release(frame)
        meas.counters.evictions += 1
        if self.shared and mapped.asid != self.active_asid:
            # Cross-tenant steal: charged to the evictor's counters,
            # recorded against the victim's residency.
            meas.counters.steals += 1
            self.pages_lost[mapped.asid] = self.pages_lost.get(mapped.asid, 0) + 1

    def _write_back(
        self, mapped: MappedObject, vpage: int, frame: int, flush: bool = False
    ) -> None:
        """Copy a dirty page from the DP-RAM to user space.

        ``flush=True`` marks an end-of-operation write-back, which the
        DMA transfer engine double-buffers (queued with a completion
        interrupt, drained while the next execution runs); an eviction
        write-back (the default) is instead ordered by the descriptor
        queue in front of the load that displaces it.
        """
        meas = self.kernel.measurement
        offset, length = mapped.page_span(vpage, self.dpram.page_size)

        def move() -> None:
            mapped.buffer.write(offset, self.dpram.cpu_read_page(frame, length))

        if flush:
            self.transfer.flush(move, length)
        else:
            self.transfer.write_back(move, length)
        meas.counters.bytes_from_dpram += length
        meas.counters.writebacks += 1
        mapped.written_back.add(vpage)

    # ------------------------------------------------------------------
    # DMA completion service (registered on INT_DMA)
    # ------------------------------------------------------------------

    def handle_dma_complete(self, line: int) -> None:
        """Service the DMA queue-drained interrupt.

        Pure bookkeeping: the completed descriptors' pages were made
        usable at submit time (translations included), so the handler
        only reclaims descriptors and acknowledges the controller.
        """
        self.kernel.spend(self.kernel.costs.dma_complete_cycles, Bucket.SW_DP)
        self.kernel.interrupts.clear(line)
