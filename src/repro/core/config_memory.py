"""Configuration layer: the rewritable configuration of the operative layer.

Paper §3: "The configuration layer follows the same principle as FPGAs, it's
a [memory] which contains the configuration of all the components (Dnodes
and interconnect) of the operative layer", and the controller "is able to
change up to the entire content ... each clock cycle thanks to its dedicated
instruction set".

:class:`ConfigMemory` is the single write path into the fabric's
configuration state: Dnode global microwords, execution modes, local
sequencer contents and switch routing.  :class:`ConfigPlane` is an
immutable configuration context that is applied in one shot — that is
how the controller's ``CPLANE`` instruction changes the entire fabric
configuration in a single cycle.

A plane is validated and decoded once per ring geometry into a
:class:`PlaneState` (cached on the plane), so applying it is one bulk
write of pre-decoded per-Dnode and per-switch state.  A plane that
covers every address also carries its configuration fingerprint, which
the ring adopts directly, so re-adopting the plane's compiled plan is a
single cache lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import index as as_index
from typing import Dict, List, Mapping, Optional, Tuple, TYPE_CHECKING

from repro.core.dnode import (DnodeMode, check_microword, check_mode,
                              dnode_fingerprint)
from repro.core.isa import MicroWord, NOP_WORD
from repro.core.local_controller import NUM_SLOTS, check_limit, check_slot
from repro.core.switch import (PortKind, PortSource, check_route,
                               host_channels, routes_fingerprint)
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ring import Ring, RingGeometry

DnodeAddr = Tuple[int, int]          # (layer, position)
SwitchRouteAddr = Tuple[int, int, int]  # (switch index, position, port)


class Fingerprint(tuple):
    """A configuration fingerprint that computes its hash once.

    Equal to (and hashing like) the plain tuple; the plan-cache lookups
    of one visit to a configuration then share a single walk of the
    nested microword structure.
    """

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash

    def __reduce__(self):
        # Hashes are per process: never carry the cached one along.
        return Fingerprint, (tuple(self),)


class _FrozenDict(dict):
    """A read-only dict: one of a :class:`ConfigPlane`'s address maps."""

    __slots__ = ()

    def _immutable(self, *args, **kwargs):
        raise TypeError("a ConfigPlane is immutable")

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    def __reduce__(self):
        return _FrozenDict, (dict(self),)


@lru_cache(maxsize=64)
def _addresses(layers: int, width: int) -> tuple:
    """A geometry's Dnode addresses (layer-major), as a tuple and a set,
    and its switch-route addresses."""
    dnodes = tuple((layer, pos) for layer in range(layers)
                   for pos in range(width))
    routes = frozenset((switch, pos, port) for switch, pos in dnodes
                       for port in (1, 2))
    return dnodes, frozenset(dnodes), routes


def _typed(values, kind: type) -> bool:
    return set(map(type, values)) <= {kind}


class PlaneState:
    """A :class:`ConfigPlane` validated and decoded for one geometry.

    ``dnodes`` holds one ``(layer, position, microword, mode, slots,
    limit, fingerprint)`` entry per Dnode the plane touches and
    ``switches`` one ``(index, routes, full, fingerprint)`` entry per
    switch, ``None`` marking a field the plane leaves alone.  A component
    the plane configures completely carries its fingerprint; when every
    component does, so does the state, in the form of
    :meth:`Ring.config_fingerprint() <repro.core.ring.Ring.config_fingerprint>`,
    together with the host channels its routing reads.
    """

    __slots__ = ("dnodes", "switches", "fingerprint", "host_channels")

    def __init__(self, plane: "ConfigPlane", geometry: "RingGeometry"):
        # Validation covers the address maps in the order the
        # single-address writes would apply them.  A map whose addresses
        # and values all pass bulk checks is taken as it is; any other
        # goes entry by entry through the setters' own checks, so the
        # first bad entry raises the message its setter raises — and
        # before anything is written.
        layers, width = geometry.layers, geometry.width
        dnodes, valid, valid_routes = _addresses(layers, width)

        def address(layer: int, position: int) -> DnodeAddr:
            if (layer, position) in valid:
                return layer, position
            geometry.check_dnode(layer, position)
            return as_index(layer), as_index(position)

        def dnode_map(entries, kind: type, check) -> Mapping:
            if entries.keys() <= valid and _typed(entries.values(), kind):
                return entries
            checked = {}
            for (layer, pos), value in entries.items():
                key = address(layer, pos)
                check(value)
                checked[key] = value
            return checked

        words = dnode_map(plane.microwords, MicroWord, check_microword)
        modes = dnode_map(plane.modes, DnodeMode, check_mode)
        programs: Dict[DnodeAddr, Tuple[tuple, int]] = {}
        for (layer, pos), (slots, limit) in plane.local_programs.items():
            key = address(layer, pos)
            slots = tuple(slots)
            if len(slots) > NUM_SLOTS or not _typed(slots, MicroWord):
                for slot, microword in enumerate(slots):
                    check_slot(slot, microword)
            check_limit(limit)
            programs[key] = (slots, limit)
        routes = plane.switch_routes
        up, rp = PortKind.UP, PortKind.RP
        if not (routes.keys() <= valid_routes
                and _typed(routes.values(), PortSource)
                and all(source.index < width if source.kind is up
                        else source.kind is not rp or source.lane <= width
                        for source in routes.values())):
            checked = {}
            for (switch, pos, port), source in routes.items():
                geometry.check_switch(switch)
                check_route(width, pos, port, source)
                checked[as_index(switch), pos, port] = source
            routes = checked
        tables: Dict[int, Dict[Tuple[int, int], PortSource]] = {}
        for (switch, pos, port), source in routes.items():
            tables.setdefault(switch, {})[pos, port] = source

        dnode_fps = []
        self.dnodes = []
        for key in dnodes:
            microword, mode = words.get(key), modes.get(key)
            slots, limit = programs.get(key, (None, 0))
            if microword is None and mode is None and slots is None:
                continue
            fp = None
            if (microword is not None and mode is not None
                    and slots is not None and len(slots) == NUM_SLOTS):
                fp = dnode_fingerprint(mode, microword, slots, limit)
                dnode_fps.append(fp)
            self.dnodes.append(key + (microword, mode, slots, limit, fp))
        self.dnodes = tuple(self.dnodes)
        switch_fps = []
        self.switches = []
        for switch in range(layers):
            table = tables.get(switch)
            if table is None:
                continue
            full = len(table) == 2 * width
            fp = None
            if full:
                fp = routes_fingerprint(table)
                switch_fps.append(fp)
            self.switches.append((switch, table, full, fp))
        self.switches = tuple(self.switches)
        self.fingerprint: Optional[Fingerprint] = None
        self.host_channels: Optional[Tuple[int, ...]] = None
        if len(dnode_fps) == len(dnodes) and len(switch_fps) == layers:
            switch_fps = tuple(switch_fps)
            self.fingerprint = Fingerprint((tuple(dnode_fps), switch_fps))
            self.host_channels = host_channels(switch_fps)


@dataclass(frozen=True)
class ConfigPlane:
    """Immutable configuration context: any subset of the fabric's
    configuration addresses, each with the value it is set to.

    Planes compare and pickle by content (they are not hashable); the
    per-geometry :class:`PlaneState` cache is neither compared nor
    pickled.  Mutating one of the address maps raises :class:`TypeError`.
    """

    microwords: Mapping[DnodeAddr, MicroWord] = field(default_factory=dict)
    modes: Mapping[DnodeAddr, DnodeMode] = field(default_factory=dict)
    local_programs: Mapping[DnodeAddr, Tuple[Tuple[MicroWord, ...], int]] = \
        field(default_factory=dict)
    switch_routes: Mapping[SwitchRouteAddr, PortSource] = field(
        default_factory=dict
    )
    _states: Dict[Tuple[int, int], PlaneState] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("microwords", "modes", "local_programs",
                     "switch_routes"):
            value = getattr(self, name)
            if type(value) is not _FrozenDict:
                object.__setattr__(self, name, _FrozenDict(value))

    def __reduce__(self):
        return ConfigPlane, (dict(self.microwords), dict(self.modes),
                             dict(self.local_programs),
                             dict(self.switch_routes))

    def decode(self, geometry: "RingGeometry") -> PlaneState:
        """This plane validated and decoded for *geometry*, once.

        Raises the :class:`~repro.errors.ConfigurationError` the first
        invalid entry's single-address write would raise.
        """
        key = (geometry.layers, geometry.width)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = PlaneState(self, geometry)
        return state

    def over_blank(self, geometry: "RingGeometry") -> "ConfigPlane":
        """This plane applied over the blank configuration of *geometry*.

        Every address the plane leaves out reads as at power-on: a NOP
        microword, GLOBAL mode, an empty local program (NOP slots, LIMIT
        1) and a ZERO route.  A plane that covers every address is
        returned as it is.
        """
        if self.decode(geometry).fingerprint is not None:
            return self
        dnodes, _, route_addresses = _addresses(geometry.layers,
                                                geometry.width)
        microwords = dict.fromkeys(dnodes, NOP_WORD)
        microwords.update(self.microwords)
        modes = dict.fromkeys(dnodes, DnodeMode.GLOBAL)
        modes.update(self.modes)
        blank_slots = (NOP_WORD,) * NUM_SLOTS
        local = dict.fromkeys(dnodes, (blank_slots, 1))
        for addr, (slots, limit) in self.local_programs.items():
            slots = tuple(slots)
            local[addr] = (slots + blank_slots[len(slots):], limit)
        routes = dict.fromkeys(route_addresses, PortSource.zero())
        routes.update(self.switch_routes)
        return ConfigPlane(microwords, modes, local, routes)


class ConfigMemory:
    """Write interface from the configuration controller into the fabric.

    Every mutating method validates its address against the ring geometry,
    so a buggy controller program fails loudly instead of silently
    configuring a non-existent Dnode.
    """

    def __init__(self, ring: "Ring"):
        self._ring = ring
        self.writes = 0  # total configuration words written (A1 ablation)
        #: The plane the configuration was last set from, when that plane
        #: covers every address and nothing has been written since; the
        #: ring clears it on every configuration mutation.
        self.resident: Optional[ConfigPlane] = None

    # Every single-address write below lands on a Dnode / LocalController
    # / SwitchConfig setter whose change hook invalidates the ring's
    # pre-decoded fast-path plan, so a write at cycle t always governs the
    # fabric from cycle t on regardless of which execution engine is
    # active.

    # -- Dnode configuration -------------------------------------------

    def write_microword(self, layer: int, position: int,
                        microword: MicroWord) -> None:
        """Set the global-mode microinstruction of one Dnode."""
        self._ring.dnode(layer, position).configure(microword)
        self.writes += 1

    def write_mode(self, layer: int, position: int, mode: DnodeMode) -> None:
        """Switch one Dnode between global and local execution."""
        self._ring.dnode(layer, position).set_mode(mode)
        self.writes += 1

    def write_local_slot(self, layer: int, position: int, slot: int,
                         microword: MicroWord) -> None:
        """Load one instruction register of a Dnode's local sequencer."""
        self._ring.dnode(layer, position).local.load_slot(slot, microword)
        self.writes += 1

    def write_local_limit(self, layer: int, position: int,
                          limit: int) -> None:
        """Write the LIMIT register of a Dnode's local sequencer."""
        self._ring.dnode(layer, position).local.set_limit(limit)
        self.writes += 1

    def write_local_program(self, layer: int, position: int,
                            program: List[MicroWord]) -> None:
        """Load a whole local loop (slots + LIMIT + counter reset)."""
        self._ring.dnode(layer, position).local.load_program(program)
        self.writes += len(program) + 1

    # -- Switch configuration ------------------------------------------

    def write_switch_route(self, switch_index: int, position: int,
                           port: int, source: PortSource) -> None:
        """Connect one downstream input port of one switch."""
        self._ring.switch(switch_index).config.route(position, port, source)
        self.writes += 1

    # -- Planes ----------------------------------------------------------

    def capture_plane(self) -> ConfigPlane:
        """Snapshot the entire current fabric configuration."""
        ring = self._ring
        dnodes = ring.all_dnodes()
        routes = _FrozenDict(
            ((si, pos, port), sw.config.source_for(pos, port))
            for si, sw in enumerate(ring._switches)
            for pos in range(sw.width) for port in (1, 2))
        return ConfigPlane(
            _FrozenDict(((dn.layer, dn.position), dn.global_word)
                        for dn in dnodes),
            _FrozenDict(((dn.layer, dn.position), dn.mode)
                        for dn in dnodes),
            _FrozenDict(((dn.layer, dn.position),
                         (tuple(dn.local.slots()), dn.local.limit))
                        for dn in dnodes),
            routes)

    def apply_plane(self, plane: ConfigPlane) -> None:
        """Apply a plane to the fabric (one-cycle reconfiguration).

        One bulk write of the plane's decoded state: only the addresses
        the plane covers change, with one fast-path invalidation for the
        whole plane.  A plane that covers every address also sets the
        ring's configuration fingerprint.  An invalid plane raises before
        anything is written.

        Counts as a single configuration write burst: the paper's wide
        configuration path, not per-word controller traffic.
        """
        if not isinstance(plane, ConfigPlane):
            raise ConfigurationError(
                f"expected ConfigPlane, got {type(plane).__name__}"
            )
        ring = self._ring
        state = plane.decode(ring.geometry)
        dnodes = ring._dnodes
        for layer, pos, microword, mode, slots, limit, fp in state.dnodes:
            dnodes[layer][pos].install(microword, mode, slots, limit, fp)
        switches = ring._switches
        for switch, routes, full, fp in state.switches:
            switches[switch].config.install(routes, full, fp)
        # A plane write is a whole-fabric reconfiguration: drop any
        # compiled fast-path plan, even if the plane was empty.
        ring._invalidate_fastpath()
        if state.fingerprint is not None:
            ring._fingerprint = state.fingerprint
            ring._host_channels = state.host_channels
            self.resident = plane
        self.writes += 1
