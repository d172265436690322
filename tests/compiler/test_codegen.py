"""``compile_graph`` emission: modes, lane orders, ring kwargs, library.

``compile_graph`` emits one mapping per call.  The mode and lane-order
arguments pick among bit-identical mappings, so every one of them must
reproduce the golden evaluator; every library recipe compiles under the
default emission and runs golden.
"""

import pytest

from repro.compiler.codegen import MODES, compile_graph
from repro.compiler.graph import CompileError
from repro.compiler.library import (
    GRAPH_LIBRARY,
    build_graph,
    library_streams,
)
from repro.compiler.schedule import LANE_ORDERS, schedule


class TestCompileGraph:
    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError):
            compile_graph(build_graph("envelope"), score_cycles=100)

    def test_unknown_mode_rejected(self):
        with pytest.raises(CompileError):
            compile_graph(build_graph("envelope"), mode="turbo")

    @pytest.mark.parametrize("mode", MODES)
    def test_all_modes_bit_identical(self, mode):
        graph = build_graph("dct4")
        streams = library_streams(graph, 10)
        program = compile_graph(graph, mode=mode)
        assert program.run(streams) == graph.evaluate(streams)

    def test_local_mode_emits_local_dnodes(self):
        asm = compile_graph(build_graph("envelope"),
                            mode="local").to_assembly()
        assert " local" in asm and " global" not in asm

    def test_hybrid_mode_localises_pass_nodes_only(self):
        program = compile_graph(build_graph("fir8"), mode="hybrid")
        local = program.local_addrs()
        assert local, "fir8 has relay pass nodes"
        passes = {(p.level - 1, p.lane) for p in program.placement.phys
                  if p.graph_node is None}
        assert local == passes

    def test_assembly_round_trip_local_mode(self):
        from repro.asm import assemble
        program = compile_graph(build_graph("envelope"), mode="local")
        obj = assemble(program.to_assembly(),
                       layers=program.geometry.layers,
                       width=program.geometry.width)
        assert obj.planes

    @pytest.mark.parametrize("lane_order", LANE_ORDERS)
    def test_all_lane_orders_bit_identical(self, lane_order):
        graph = build_graph("envelope")
        streams = library_streams(graph, 10)
        program = compile_graph(graph, lane_order=lane_order)
        assert program.run(streams) == graph.evaluate(streams)

    def test_unknown_lane_order_rejected(self):
        with pytest.raises(CompileError):
            schedule(build_graph("envelope"), lane_order="sideways")

    def test_auto_widen_fits_wide_graphs(self):
        # fir8 needs width 3: the default geometry must widen past 2.
        program = compile_graph(build_graph("fir8"))
        assert program.geometry.width == 3


class TestRingKwargs:
    def test_default_program_runs_on_the_ladder(self):
        """A program carries no engine choice by default: its ring is
        the scalar compiled ladder."""
        program = compile_graph(build_graph("fir8"))
        assert program.ring_kwargs == {}
        assert program.build_system().ring.backend == "native"

    def test_lane_engine_gets_batch_size(self):
        program = compile_graph(build_graph("fir8"), ring_kwargs={
            "backend": "batch", "batch_size": 3})
        ring = program.build_system().ring
        assert (ring.backend, ring.batch_size) == ("batch", 3)


class TestLibrary:
    def test_catalogue(self):
        assert {"fir8", "dct4", "cmul", "envelope"} <= set(GRAPH_LIBRARY)
        assert {"cordic4", "cordic_vec4", "nco_wave", "up2", "down2",
                "up3", "down3", "vca", "mixer4", "chorus6", "cmul4",
                "cmag"} <= set(GRAPH_LIBRARY)

    def test_unknown_name_raises(self):
        with pytest.raises(CompileError):
            build_graph("fft1024")

    @pytest.mark.parametrize("name", sorted(GRAPH_LIBRARY))
    def test_every_kernel_compiles_and_matches_golden(self, name):
        graph = build_graph(name)
        streams = library_streams(graph, 16)
        assert compile_graph(graph).run(streams) == \
            graph.evaluate(streams)

    def test_streams_deterministic_and_per_channel(self):
        graph = build_graph("cmul")
        a = library_streams(graph, 8, seed=5)
        b = library_streams(graph, 8, seed=5)
        assert a == b
        assert set(a) == {0, 1}
        assert a[0] != a[1]

    def test_scenario_graphs_registered(self):
        for name in ("cordic4", "cordic_vec4", "nco_wave", "up2",
                     "down2", "up3", "down3", "vca", "mixer4",
                     "chorus6", "cmul4", "cmag"):
            graph = build_graph(name)
            streams = library_streams(graph, 6)
            assert graph.evaluate(streams)
