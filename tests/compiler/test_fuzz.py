"""The cross-engine conformance fuzzer and its ``fuzz`` CLI.

Mutated graphs are compiled under every :data:`FUZZ_MAPPINGS` pair and
run on every backend; each output is bit-compared against the golden
evaluator.  The campaigns here are seeded, so they are deterministic.
"""

from repro.compiler.codegen import CompiledProgram
from repro.compiler.fuzz import (
    FUZZ_ENGINES,
    _fuzz_ring,
    _genome_from_graph,
    _library_corpus,
    fuzz_conformance,
)
from repro.compiler.library import build_graph, library_streams
from repro.core.ring import Ring, RingGeometry
from repro.tools.__main__ import main


class TestFuzzer:
    def test_every_engine_constructs_a_ring(self):
        assert FUZZ_ENGINES == Ring.BACKENDS
        for engine in FUZZ_ENGINES:
            ring = _fuzz_ring(engine, RingGeometry(layers=2, width=2))
            assert ring.backend == engine

    def test_engines_bit_identical_under_fuzzing(self):
        report = fuzz_conformance(rounds=6, seed=2002, samples=6)
        assert report.ok, report.mismatches
        assert report.candidates_checked > 0
        assert report.coverage > 0

    def test_deterministic_for_a_seed(self):
        a = fuzz_conformance(rounds=4, seed=11, samples=5)
        b = fuzz_conformance(rounds=4, seed=11, samples=5)
        assert (a.candidates_checked, a.coverage, a.corpus_size,
                a.rejected) == (b.candidates_checked, b.coverage,
                                b.corpus_size, b.rejected)

    def test_summary_carries_the_verdict(self):
        report = fuzz_conformance(rounds=3, seed=7, samples=5)
        assert "bit-identical" in report.summary()


class TestCorpus:
    def test_fuzz_corpus_seeded_from_library(self):
        seeds = _library_corpus(max_nodes=28)
        # Every small library recipe contributes one genome; the CORDIC
        # unrolls (>28 nodes) are skipped by design.
        assert len(seeds) >= 10
        for genome in seeds:
            graph = genome.build()
            assert len(graph.nodes()) <= 28
            graph.evaluate(library_streams(graph, 4))
        # Round trip: a re-expressed graph preserves node structure.
        original = build_graph("up2")
        rebuilt = _genome_from_graph(original).build()
        assert [(n.kind, n.op) for n in rebuilt.nodes()] == \
            [(n.kind, n.op) for n in original.nodes()]

    def test_fuzz_campaign_with_seeded_corpus_is_green(self):
        report = fuzz_conformance(rounds=6, seed=11, samples=8)
        assert report.ok, report.mismatches
        assert report.corpus_size >= 14


class TestCli:
    def test_pinned_seed_exits_zero(self, capsys):
        assert main(["fuzz", "--rounds", "2", "--seed", "2002"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: 2 rounds" in out
        assert "all engines bit-identical" in out

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        run_lanes = CompiledProgram.run_lanes

        def corrupted(program, streams, ring=None):
            lanes = run_lanes(program, streams, ring)
            if ring.backend == "interpreter":
                for outputs in lanes:
                    for samples in outputs.values():
                        samples[0] += 1
            return lanes

        monkeypatch.setattr(CompiledProgram, "run_lanes", corrupted)
        assert main(["fuzz", "--rounds", "1", "--seed", "2002"]) == 1
        captured = capsys.readouterr()
        assert "MISMATCHES" in captured.out
        assert "MISMATCH round 0" in captured.err
        assert "interpreter" in captured.err
