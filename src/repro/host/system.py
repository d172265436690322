"""RingSystem: controller + fabric + data controller on one clock.

This is the SoC-level view of Fig. 2: the host CPU uploads management code
to the configuration controller, streams data through the data controller's
direct ports, and reads results back.  One :meth:`RingSystem.step` is one
clock of the whole accelerator:

1. the controller executes one instruction and its configuration commands
   are applied to the fabric (a configuration written at cycle *t* governs
   the fabric from cycle *t* on — the hardware-multiplexing rate of one
   full-function change per cycle);
2. the ring evaluates and commits one cycle, reading the shared bus value
   currently driven by the controller and the direct-port streams;
3. the data controller samples output taps and advances input streams.

A system can also run *uncontrolled* (controller=None) when the fabric is
fully configured up front and left in local mode — the stand-alone
operating point the paper's multi-level reconfiguration enables.  There
the direct ports' token rates are static, so :meth:`RingSystem.run`
moves host I/O in whole windows (:mod:`repro.core.hostio`) and
:meth:`RingSystem.step` stays the per-cycle reference twin.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.config_memory import ConfigPlane
from repro.core.hostio import HostPort
from repro.core.ring import Ring
from repro.controller.core import (
    ConfigCommand,
    ConfigTargetKind,
    RiscController,
)
from repro.host.streams import DataController
from repro.errors import SimulationError


class RingSystem(HostPort):
    """A complete Systolic Ring accelerator instance."""

    def __init__(self, ring: Ring,
                 controller: Optional[RiscController] = None,
                 planes: Optional[Sequence[ConfigPlane]] = None):
        self.ring = ring
        self.controller = controller
        self.planes: List[ConfigPlane] = list(planes or [])
        # A batch-backend ring gets a batch data controller: per-lane
        # stream channels and output taps on the same direct ports.
        batch = ring.batch_size if ring.backend == "batch" else 1
        self.data = DataController(batch=batch)
        self.cycles = 0
        if controller is not None:
            width = ring.geometry.width
            controller.fabric_reader = (
                lambda dnode: ring.dnode(*divmod(dnode, width)).out)

    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the whole accelerator by one clock cycle.

        The bus value driven by the controller is handed to the ring,
        which records it (:attr:`~repro.core.ring.Ring.last_bus`) — so an
        attached :class:`~repro.analysis.trace.SignalTrace` bus probe
        observes the controller's ``BUSW`` traffic, not a stale default.
        """
        bus = 0
        if self.controller is not None:
            commands = self.controller.step()
            for command in commands:
                self._apply(command)
            bus = self.controller.bus_out
        self.ring.step(bus=bus, host_in=self.data.host_in)
        self.data.collect(self.ring)
        self.data.advance()
        self.cycles += 1

    def run(self, cycles: int) -> None:
        """Advance the whole accelerator *cycles* clock cycles.

        An uncontrolled system hands the whole window to
        :meth:`repro.core.ring.Ring.run` with itself as the host port
        (the data controller's windows, counted on the system clock):
        stream words go in as arrays consumed by cycle index
        and tap samples come back as OUT histories, so the compiled
        engines (fast path, macro-step, native, batch) run end to end
        without re-entering the host layer every cycle.  Observers split
        the window at their capture points, where the host queues and tap
        samples are exactly as per-cycle stepping leaves them.  With a
        controller attached every cycle needs its instruction, so the run
        steps per cycle.
        """
        if cycles < 0:
            raise SimulationError(f"cycle count must be >= 0, got {cycles}")
        if self.controller is not None:
            for _ in range(cycles):
                self.step()
            return
        self.ring.run(cycles, host_in=self)

    # -- HostPort: the data controller's windows on the system clock ----

    def open_window(self, ring, cycles: int):
        return self.data.open_window(ring, cycles)

    def close_window(self, window, edges: int) -> None:
        self.data.close_window(window, edges)
        self.cycles += edges

    def clock_edge(self, ring) -> None:
        self.data.collect(ring)
        self.data.advance()
        self.cycles += 1

    def checkpoint(self):
        """Capture a whole-system checkpoint (fabric + host streams).

        Returns a :class:`~repro.robustness.checkpoint.SystemCheckpoint`
        restorable onto this system — or any same-geometry system with
        the same tap topology, which is how the serving layer migrates a
        running job between workers.
        """
        from repro.robustness.checkpoint import capture_system
        return capture_system(self)

    def restore_checkpoint(self, checkpoint) -> None:
        """Restore a :meth:`checkpoint` (taps must already exist)."""
        from repro.robustness.checkpoint import restore_system
        restore_system(self, checkpoint)

    def set_plan_cache(self, capacity: int) -> None:
        """Resize the ring's compiled-plan cache (0 disables caching)."""
        self.ring.set_plan_cache(capacity)

    def set_macro_step(self, macro_step: int) -> None:
        """Set the ring's macro-step fusion target (0/1 disables)."""
        self.ring.set_macro_step(macro_step)

    def metrics(self):
        """Aggregate every live counter into a MetricsSnapshot.

        Covers the fabric (cycles, per-Dnode activity, FIFO depths and
        high-water marks, fast-path plan lifecycle, configuration
        traffic) and — when a controller is attached — its retire/stall
        statistics.  Read-only; call as often as needed.
        """
        from repro.analysis.metrics import MetricsRegistry
        return MetricsRegistry.of(self).collect()

    def run_until_halt(self, max_cycles: int = 1_000_000,
                       drain: int = 0) -> int:
        """Run until the controller halts (plus *drain* extra cycles).

        Returns the number of cycles executed.  Raises if no controller is
        attached or the limit is hit — a silent infinite loop is always a
        bug in the management code.
        """
        if self.controller is None:
            raise SimulationError("run_until_halt needs a controller")
        start = self.cycles
        while not self.controller.halted:
            self.step()
            if self.cycles - start > max_cycles:
                raise SimulationError(
                    f"controller did not halt within {max_cycles} cycles"
                )
        for _ in range(drain):
            self.step()
        return self.cycles - start

    def run_until_taps_full(self, max_cycles: int = 1_000_000) -> int:
        """Run until every limited output tap has all its samples."""
        limited = [t for t in self.data.taps if t.limit is not None]
        if not limited:
            raise SimulationError(
                "run_until_taps_full needs at least one tap with a limit"
            )
        start = self.cycles
        while not all(t.full for t in limited):
            self.step()
            if self.cycles - start > max_cycles:
                raise SimulationError(
                    f"taps not full within {max_cycles} cycles "
                    f"({[len(t.samples) for t in limited]} collected)"
                )
        return self.cycles - start

    # ------------------------------------------------------------------

    def _apply(self, command: ConfigCommand) -> None:
        """Apply one controller configuration command to the fabric."""
        cfg = self.ring.config
        width = self.ring.geometry.width
        if command.kind in (ConfigTargetKind.DNODE_WORD,
                            ConfigTargetKind.LOCAL_SLOT,
                            ConfigTargetKind.LOCAL_LIMIT,
                            ConfigTargetKind.MODE):
            layer, pos = divmod(command.dnode, width)
        if command.kind is ConfigTargetKind.DNODE_WORD:
            cfg.write_microword(layer, pos, command.microword)
        elif command.kind is ConfigTargetKind.LOCAL_SLOT:
            cfg.write_local_slot(layer, pos, command.slot, command.microword)
        elif command.kind is ConfigTargetKind.LOCAL_LIMIT:
            cfg.write_local_limit(layer, pos, command.limit)
        elif command.kind is ConfigTargetKind.MODE:
            from repro.core.dnode import DnodeMode
            mode = DnodeMode.LOCAL if command.mode else DnodeMode.GLOBAL
            cfg.write_mode(layer, pos, mode)
        elif command.kind is ConfigTargetKind.SWITCH_ROUTE:
            cfg.write_switch_route(command.sw, command.pos, command.port,
                                   command.route)
        elif command.kind is ConfigTargetKind.PLANE:
            if not 0 <= command.plane < len(self.planes):
                raise SimulationError(
                    f"CFGPLANE {command.plane}: only {len(self.planes)} "
                    f"plane(s) installed"
                )
            cfg.apply_plane(self.planes[command.plane])
        else:  # pragma: no cover - exhaustive
            raise SimulationError(f"unhandled config command {command!r}")

    def __repr__(self) -> str:
        ctrl = "no controller" if self.controller is None else repr(
            self.controller)
        return f"RingSystem({self.ring!r}, {ctrl}, cycle={self.cycles})"
