"""Resident configuration planes: one bulk write per plane.

``ConfigMemory.apply_plane`` writes a plane's decoded state in bulk.  The
reference is the single-address ``write_*`` path replayed word by word:
both must leave the same configuration, fingerprint, counters and — after
running — the same datapath state, on the interpreter and on the ladder.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.codegen import compile_graph
from repro.compiler.library import GRAPH_LIBRARY, build_graph
from repro.core.config_memory import ConfigPlane
from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, MicroWord, NOP_WORD, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import state_digest
from repro.core.switch import PortSource
from repro.errors import ConfigurationError
from repro.host.system import RingSystem
from repro.kernels import scenarios

BACKENDS = ("interpreter", "native")


def replay(ring: Ring, plane: ConfigPlane) -> None:
    """Apply *plane* through the single-address write path."""
    cfg = ring.config
    for (layer, pos), microword in plane.microwords.items():
        cfg.write_microword(layer, pos, microword)
    for (layer, pos), mode in plane.modes.items():
        cfg.write_mode(layer, pos, mode)
    for (layer, pos), (slots, limit) in plane.local_programs.items():
        for slot, microword in enumerate(slots):
            cfg.write_local_slot(layer, pos, slot, microword)
        cfg.write_local_limit(layer, pos, limit)
    for (switch, pos, port), source in plane.switch_routes.items():
        cfg.write_switch_route(switch, pos, port, source)


def drive(ring: Ring, cycles: int, seed: int) -> None:
    """Run *cycles* with a deterministic stream on every host channel."""
    system = RingSystem(ring)
    for channel in ring.host_channels():
        system.data.stream(channel, [(seed * 977 + 31 * i + channel) & 0xFFFF
                                     for i in range(cycles)])
    system.run(cycles)


def counters(ring: Ring) -> tuple:
    return (ring.plan_invalidations,
            tuple(ring.switch(k).config.writes
                  for k in range(ring.geometry.layers)))


def assert_bulk_matches_replay(geometry: RingGeometry, base: ConfigPlane,
                               plane: ConfigPlane, backend: str) -> None:
    bulk, words = (Ring(geometry, backend=backend) for _ in range(2))
    for ring in (bulk, words):
        replay(ring, base)
        drive(ring, 5, seed=1)
    before = counters(bulk)
    assert before == counters(words)
    writes = bulk.config.writes
    planned = bulk._plan is not None
    empty = not (plane.microwords or plane.modes or plane.local_programs
                 or plane.switch_routes)

    bulk.config.apply_plane(plane)
    replay(words, plane)

    assert bulk.config_fingerprint() == words.config_fingerprint()
    assert bulk.host_channels() == words.host_channels()
    assert bulk.config.capture_plane() == words.config.capture_plane()
    invalidations, switch_writes = counters(bulk)
    # Even an empty plane is a reconfiguration event that drops the plan;
    # an empty replay writes nothing.
    assert (invalidations - int(empty and planned),
            switch_writes) == counters(words)
    assert bulk.config.writes == writes + 1, "one write burst per plane"
    for ring in (bulk, words):
        drive(ring, 64, seed=2)
    assert state_digest(bulk) == state_digest(words)


def library_plane(name: str, mode: str = "hybrid") -> ConfigPlane:
    """The full plane of a compiled ``GRAPH_LIBRARY`` program."""
    program = compile_graph(build_graph(name), mode=mode)
    scratch = Ring(program.geometry, backend="interpreter")
    program.configure(scratch)
    return scratch.config.capture_plane()


def scenario_planes():
    """name -> (geometry, plane, the pipeline's other plane)."""
    synth = scenarios._synth_planes(scenarios.SYNTH_GEOMETRY,
                                    1400, 1750, 22000)
    effects = scenarios._effects_planes(scenarios.EFFECTS_GEOMETRY,
                                        26000, 20000)
    return {
        "synth_voice": (scenarios.SYNTH_GEOMETRY, synth[0], synth[1]),
        "synth_echo": (scenarios.SYNTH_GEOMETRY, synth[1], synth[0]),
        "chorus_vca": (scenarios.EFFECTS_GEOMETRY, effects[0], effects[1]),
        "effects_echo": (scenarios.EFFECTS_GEOMETRY, effects[1],
                         effects[0]),
    }


def mov(imm: int) -> MicroWord:
    return MicroWord(Opcode.MOV, Source.IMM, dst=Dest.OUT, imm=imm)


class TestSameStateAsWordWrites:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(GRAPH_LIBRARY))
    def test_library_programs(self, name, backend):
        plane = library_plane(name)
        base = library_plane(name, mode="local")
        geometry = compile_graph(build_graph(name)).geometry
        assert plane.decode(geometry).fingerprint is not None
        assert_bulk_matches_replay(geometry, base, plane, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(scenario_planes()))
    def test_scenario_planes(self, name, backend):
        geometry, plane, other = scenario_planes()[name]
        assert plane.decode(geometry).fingerprint is not None
        assert_bulk_matches_replay(geometry, other, plane, backend)


GEOMETRY = RingGeometry(layers=4, width=2)
DNODES = [(layer, pos) for layer in range(4) for pos in range(2)]
ROUTES = [(switch, pos, port) for switch in range(4) for pos in range(2)
          for port in (1, 2)]
WORDS = st.sampled_from([
    NOP_WORD,
    MicroWord(Opcode.MOV, Source.IN1, dst=Dest.OUT),
    MicroWord(Opcode.ADD, Source.IN1, Source.IN2, Dest.OUT),
    MicroWord(Opcode.ADD, Source.SELF, Source.IMM, Dest.OUT, imm=3),
    MicroWord(Opcode.MAC, Source.IN1, Source.IMM, Dest.R0, imm=2),
    MicroWord(Opcode.SUB, Source.rp(2, 1), Source.BUS, Dest.OUT),
    mov(5),
])
SOURCES = st.sampled_from([
    PortSource.zero(), PortSource.up(0), PortSource.up(1),
    PortSource.rp(1, 1), PortSource.rp(3, 2), PortSource.host(0),
    PortSource.host(1), PortSource.bus(),
])
PARTIAL_PLANES = st.builds(
    ConfigPlane,
    st.dictionaries(st.sampled_from(DNODES), WORDS),
    st.dictionaries(st.sampled_from(DNODES), st.sampled_from(list(DnodeMode))),
    st.dictionaries(st.sampled_from(DNODES), st.tuples(
        st.lists(WORDS, min_size=1, max_size=8).map(tuple),
        st.integers(1, 8))),
    st.dictionaries(st.sampled_from(ROUTES), SOURCES),
)


class TestPartialPlanes:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=40)
    @given(base=PARTIAL_PLANES, plane=PARTIAL_PLANES)
    def test_partial_planes(self, backend, base, plane):
        assert_bulk_matches_replay(GEOMETRY, base, plane, backend)

    def test_partial_plane_leaves_fingerprint_lazy(self):
        ring = Ring(GEOMETRY)
        full = ring.config.capture_plane()
        ring.config.apply_plane(full)
        assert ring.config.resident is full
        ring.config.apply_plane(ConfigPlane(microwords={(0, 0): mov(7)}))
        assert ring.config.resident is None
        assert ring._fingerprint is None
        words = Ring(GEOMETRY)
        words.config.write_microword(0, 0, mov(7))
        assert ring.config_fingerprint() == words.config_fingerprint()


class TestNoStaleFingerprint:
    def setup_ring(self):
        ring = Ring(RingGeometry(layers=9, width=3))
        plane = library_plane("fir8")
        ring.config.apply_plane(plane)
        drive(ring, 8, seed=3)
        assert ring._plan is not None
        return ring, plane

    @pytest.mark.parametrize("write", [
        lambda cfg: cfg.write_microword(0, 0, mov(99)),
        lambda cfg: cfg.write_switch_route(1, 2, 2, PortSource.host(3)),
    ])
    def test_word_write_after_bulk_apply(self, write):
        ring, plane = self.setup_ring()
        fingerprint = ring.config_fingerprint()
        invalidations = ring.plan_invalidations
        write(ring.config)
        assert ring._plan is None
        assert ring.plan_invalidations == invalidations + 1
        assert ring.config.resident is None
        assert ring.config_fingerprint() != fingerprint
        words = Ring(ring.geometry)
        replay(words, plane)
        write(words.config)
        assert ring.config_fingerprint() == words.config_fingerprint()


class TestAtomicRejection:
    @pytest.mark.parametrize("bad", [
        ConfigPlane(microwords={(0, 0): mov(1), (4, 0): mov(2)}),
        ConfigPlane(microwords={(0, 0): mov(1), (0, 1): 42}),
        ConfigPlane(microwords={(0, 0): mov(1)}, modes={(1, 1): "local"}),
        ConfigPlane(microwords={(0, 0): mov(1)},
                    local_programs={(1, 0): ((mov(3),) * 9, 2)}),
        ConfigPlane(microwords={(0, 0): mov(1)},
                    local_programs={(1, 0): ((mov(3),), 0)}),
        ConfigPlane(microwords={(0, 0): mov(1)},
                    switch_routes={(0, 0, 1): PortSource.up(1),
                                   (4, 0, 1): PortSource.up(0)}),
        ConfigPlane(microwords={(0, 0): mov(1)},
                    switch_routes={(1, 0, 3): PortSource.up(0)}),
        ConfigPlane(microwords={(0, 0): mov(1)},
                    switch_routes={(1, 0, 1): PortSource.rp(1, 3)}),
    ])
    def test_rejected_plane_writes_nothing(self, bad):
        ring = Ring(GEOMETRY)
        resident = library_plane("envelope")
        ring.config.apply_plane(resident)
        drive(ring, 6, seed=4)
        fingerprint = ring.config_fingerprint()
        captured = ring.config.capture_plane()
        before = (counters(ring), ring.config.writes)
        with pytest.raises(ConfigurationError) as bulk:
            ring.config.apply_plane(bad)
        assert ring.config_fingerprint() == fingerprint
        assert ring.config.capture_plane() == captured
        assert (counters(ring), ring.config.writes) == before
        assert ring._plan is not None and ring.config.resident is resident
        with pytest.raises(ConfigurationError) as words:
            replay(Ring(GEOMETRY), bad)
        assert str(bulk.value) == str(words.value)


class TestImmutablePlanes:
    def test_mutation_raises(self):
        plane = library_plane("vca")
        with pytest.raises(TypeError):
            plane.microwords[(0, 0)] = mov(1)
        with pytest.raises(TypeError):
            plane.switch_routes.clear()
        with pytest.raises(TypeError):
            plane.modes.update({(0, 0): DnodeMode.LOCAL})
        with pytest.raises(dataclasses.FrozenInstanceError):
            plane.microwords = {}

    def test_constructor_copies_its_dicts(self):
        words = {(0, 0): mov(1)}
        plane = ConfigPlane(microwords=words)
        words[(0, 0)] = mov(2)
        assert plane.microwords[(0, 0)] == mov(1)

    def test_planes_compare_and_pickle_by_content(self):
        plane = library_plane("cmag")
        twin = library_plane("cmag")
        assert plane == twin and plane is not twin
        assert plane != library_plane("vca")
        fresh = pickle.dumps(twin)
        geometry = RingGeometry(layers=4, width=2)
        assert plane.decode(geometry).fingerprint is not None
        assert pickle.dumps(plane) == fresh, "decoded state not pickled"
        back = pickle.loads(pickle.dumps(plane))
        assert back == plane and back._states == {}
        with pytest.raises(TypeError):
            back.microwords[(0, 0)] = mov(1)


class TestOverBlank:
    def test_partial_plane_fills_with_power_on_configuration(self):
        plane = ConfigPlane(
            microwords={(1, 1): mov(4)},
            local_programs={(2, 0): ((mov(5), mov(6)), 2)},
            switch_routes={(3, 0, 2): PortSource.up(1)})
        ring = Ring(GEOMETRY)
        replay(ring, library_plane("envelope", mode="local"))
        ring.config.apply_plane(plane.over_blank(GEOMETRY))
        fresh = Ring(GEOMETRY)
        fresh.config.apply_plane(plane)
        assert ring.config.capture_plane() == fresh.config.capture_plane()
        assert ring.config_fingerprint() == fresh.config_fingerprint()

    def test_full_plane_is_its_own_blank_fill(self):
        plane = library_plane("vca")
        assert plane.over_blank(RingGeometry(layers=2, width=2)) is plane
