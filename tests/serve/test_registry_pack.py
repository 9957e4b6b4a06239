"""Registry + packs: attach, mmap cold loads, reload-after-eviction."""

from __future__ import annotations

import pytest

from repro.core.sta_compiled import (
    CompiledSTA,
    Scenario,
    compile_design,
    design_cache_key,
)
from repro.errors import ReproError
from repro.journal import RunJournal, read_journal
from repro.netlist.benchmarks import attach_parasitics
from repro.netlist.generators import build_adder
from repro.pack import pack_compiled_design
from repro.perf import PerfCounters
from repro.serve.registry import DesignRegistry, _SINK_ENTRY_BYTES, design_nbytes
from repro.units import PS

SCENARIOS = [
    Scenario(input_slew=s * PS, launch_rising=e)
    for s in (10.0, 40.0)
    for e in (True, False)
]


@pytest.fixture(scope="module")
def second_circuit(tech):
    """A second distinct design so eviction has something to choose."""
    circuit = build_adder(2, name="adder2")
    attach_parasitics(circuit, tech, seed=11)
    return circuit


@pytest.fixture()
def adder_pack(adder_circuit, mini_models, tmp_path):
    """A valid ``.rpk`` for ``adder_circuit`` under its live key."""
    design = compile_design(adder_circuit, mini_models)
    key = design_cache_key(adder_circuit, mini_models)
    return pack_compiled_design(
        design, tmp_path / "adder3.rpk", design_key=key
    )


def flip_last_byte(path) -> None:
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestAttachPack:
    def test_cold_load_comes_from_the_pack(
        self, adder_circuit, mini_models, adder_pack, tmp_path
    ):
        journal = RunJournal(tmp_path / "serve.jsonl")
        perf = PerfCounters(journal=journal)
        registry = DesignRegistry(perf=perf)
        registry.register("adder3", adder_circuit, mini_models)
        assert registry.attach_pack("adder3", adder_pack) is True
        # Attach validates without counting as a load.
        assert perf.pack_loads == 0

        engine = registry.engine("adder3")
        assert perf.pack_loads == 1
        assert engine.design.pack is not None
        stats = registry.stats()["designs"][0]
        assert stats["mmap"] is True
        assert stats["pack"] == str(adder_pack)

        journal.close()
        loads = [
            e for e in read_journal(journal.path)
            if e["event"] == "serve_design_load"
        ]
        assert [e["source"] for e in loads] == ["pack"]

    def test_pack_served_answers_are_bit_identical(
        self, adder_circuit, mini_models, adder_pack
    ):
        registry = DesignRegistry()
        registry.register("adder3", adder_circuit, mini_models)
        assert registry.attach_pack("adder3", adder_pack)
        packed = registry.engine("adder3").analyze_batch(SCENARIOS)

        design = compile_design(adder_circuit, mini_models)
        direct = CompiledSTA(
            adder_circuit, mini_models, design=design
        ).analyze_batch(SCENARIOS)
        for a, b in zip(packed, direct):
            assert a.critical_delay == b.critical_delay
            for level in (-3, -1, 1, 3):
                assert a.critical_path.total(level) == b.critical_path.total(level)

    def test_attach_to_unregistered_design_raises(self, adder_pack):
        registry = DesignRegistry()
        with pytest.raises(ReproError, match="not registered"):
            registry.attach_pack("ghost", adder_pack)

    def test_stale_pack_is_refused_and_design_still_serves(
        self, adder_circuit, mini_models, tmp_path
    ):
        design = compile_design(adder_circuit, mini_models)
        rpk = pack_compiled_design(
            design, tmp_path / "stale.rpk", design_key="some-older-key"
        )
        journal = RunJournal(tmp_path / "serve.jsonl")
        registry = DesignRegistry(perf=PerfCounters(journal=journal))
        registry.register("adder3", adder_circuit, mini_models)
        assert registry.attach_pack("adder3", rpk) is False

        engine = registry.engine("adder3")  # compiles as before
        assert engine.design.pack is None
        assert engine.analyze().critical_delay > 0
        assert registry.stats()["designs"][0]["mmap"] is False

        journal.close()
        refusals = [
            e for e in read_journal(journal.path)
            if e["event"] == "pack_verify" and not e["ok"]
        ]
        assert len(refusals) == 1
        assert "stale" in refusals[0]["error"]

    def test_corrupt_pack_is_refused_at_attach(
        self, adder_circuit, mini_models, adder_pack
    ):
        flip_last_byte(adder_pack)
        registry = DesignRegistry()
        registry.register("adder3", adder_circuit, mini_models)
        assert registry.attach_pack("adder3", adder_pack) is False
        assert registry.stats()["designs"][0]["pack"] is None

    def test_pack_corrupted_after_attach_falls_back_to_compile(
        self, adder_circuit, mini_models, adder_pack, tmp_path
    ):
        journal = RunJournal(tmp_path / "serve.jsonl")
        registry = DesignRegistry(perf=PerfCounters(journal=journal))
        registry.register("adder3", adder_circuit, mini_models)
        assert registry.attach_pack("adder3", adder_pack) is True
        flip_last_byte(adder_pack)  # rot after the attach-time check

        engine = registry.engine("adder3")
        assert engine.design.pack is None  # compiled, not mmap'd
        assert engine.analyze().critical_delay > 0
        assert registry.stats()["designs"][0]["mmap"] is False

        journal.close()
        events = read_journal(journal.path)
        assert any(
            e["event"] == "pack_verify" and not e["ok"] for e in events
        )
        loads = [e for e in events if e["event"] == "serve_design_load"]
        assert [e["source"] for e in loads] == ["compile"]


class TestReloadAfterEviction:
    def test_reload_is_bit_identical_and_counts_exactly_once(
        self, adder_circuit, second_circuit, mini_models, adder_pack, tmp_path
    ):
        journal = RunJournal(tmp_path / "serve.jsonl")
        perf = PerfCounters(journal=journal)
        registry = DesignRegistry(perf=perf, budget_bytes=1)
        registry.register("adder3", adder_circuit, mini_models)
        registry.register("adder2", second_circuit, mini_models)
        assert registry.attach_pack("adder3", adder_pack)

        baseline = registry.engine("adder3").analyze_batch(SCENARIOS)
        registry.engine("adder2")  # evicts adder3 (budget fits one)
        stats = {d["name"]: d for d in registry.stats()["designs"]}
        assert stats["adder3"]["resident"] is False
        assert stats["adder3"]["mmap"] is False
        assert stats["adder3"]["pack"] == str(adder_pack)  # path survives

        loads_before = perf.sta_serve_design_loads
        packs_before = perf.pack_loads
        reloaded = registry.engine("adder3").analyze_batch(SCENARIOS)
        # The reload mmap'd the pack exactly once — no recompile, no
        # double-count from validation.
        assert perf.pack_loads - packs_before == 1
        assert perf.sta_serve_design_loads - loads_before == 1

        for a, b in zip(baseline, reloaded):
            assert a.critical_delay == b.critical_delay
            for level in (-3, -1, 1, 3):
                assert a.critical_path.total(level) == b.critical_path.total(level)

        # And bit-identical to a compile-from-scratch engine.
        fresh = CompiledSTA(
            adder_circuit,
            mini_models,
            design=compile_design(adder_circuit, mini_models),
        ).analyze_batch(SCENARIOS)
        for a, b in zip(reloaded, fresh):
            assert a.critical_delay == b.critical_delay

        journal.close()
        loads = [
            e for e in read_journal(journal.path)
            if e["event"] == "serve_design_load" and e["design"] == "adder3"
        ]
        assert [e["source"] for e in loads] == ["pack", "pack"]


class TestResidentAccounting:
    def test_flat_parasitics_are_counted(self, adder_circuit, mini_models):
        # Regression: the LRU must charge the flat parasitic arrays
        # (net_load / end_elmore / per-level elm_in), not only the arc
        # tensor bank — they are the same order of magnitude.
        design = compile_design(adder_circuit, mini_models)
        nbytes = design_nbytes(design)
        parasitics = (
            design.net_load.nbytes
            + design.end_elmore.nbytes
            + sum(level.elm_in.nbytes for level in design.levels)
        )
        arcs_only = sum(
            getattr(design.arcs, f).nbytes
            for f in ("ref", "mu_coef", "sigma_coef", "skew_coef", "kurt_coef")
        )
        assert parasitics > 0
        assert nbytes >= arcs_only + parasitics

    def test_pack_backed_design_is_charged_resident_size(
        self, adder_circuit, mini_models, adder_pack
    ):
        from repro.pack import load_compiled_design

        full = compile_design(adder_circuit, mini_models)
        mapped = load_compiled_design(adder_pack)
        side = (
            len(mapped.sink_elmore) + len(mapped.sink_xw)
        ) * _SINK_ENTRY_BYTES
        assert design_nbytes(mapped) == side
        assert design_nbytes(mapped) < design_nbytes(full)

    def test_registry_budget_uses_resident_size(
        self, adder_circuit, mini_models, adder_pack
    ):
        full_cost = design_nbytes(compile_design(adder_circuit, mini_models))
        # A budget too small for the full tensors but large enough for
        # the mmap-resident side tables keeps the pack-backed design
        # resident instead of thrashing.
        registry = DesignRegistry(budget_bytes=full_cost - 1)
        registry.register("adder3", adder_circuit, mini_models)
        assert registry.attach_pack("adder3", adder_pack)
        registry.engine("adder3")
        stats = registry.stats()
        assert stats["designs"][0]["resident"] is True
        assert stats["resident_bytes"] < full_cost
