"""Design-registry tests: residency, bytes-budgeted LRU, build races."""

from __future__ import annotations

import threading

import pytest

from repro.core.sta_compiled import design_cache_key
from repro.errors import ReproError
from repro.journal import RunJournal, read_journal
from repro.netlist.benchmarks import attach_parasitics
from repro.netlist.generators import build_adder
from repro.perf import PerfCounters
from repro.serve.registry import DesignRegistry, design_nbytes


@pytest.fixture(scope="module")
def second_circuit(tech):
    """A second distinct design so eviction has something to choose."""
    circuit = build_adder(2, name="adder2")
    attach_parasitics(circuit, tech, seed=11)
    return circuit


class TestRegistration:
    def test_register_returns_content_key(self, adder_circuit, mini_models):
        registry = DesignRegistry()
        key = registry.register("adder3", adder_circuit, mini_models)
        assert key == design_cache_key(adder_circuit, mini_models)
        assert "adder3" in registry
        assert registry.names() == ["adder3"]
        assert registry.key("adder3") == key

    def test_unknown_design_raises(self, adder_circuit, mini_models):
        registry = DesignRegistry()
        registry.register("adder3", adder_circuit, mini_models)
        with pytest.raises(ReproError, match="not registered"):
            registry.engine("nope")
        with pytest.raises(ReproError, match="not registered"):
            registry.key("nope")

    def test_reregister_same_content_is_idempotent(
        self, adder_circuit, mini_models
    ):
        registry = DesignRegistry()
        k1 = registry.register("adder3", adder_circuit, mini_models)
        engine = registry.engine("adder3")
        k2 = registry.register("adder3", adder_circuit, mini_models)
        assert k1 == k2
        assert registry.engine("adder3") is engine


class TestResidency:
    def test_engine_is_warm_on_second_call(self, adder_circuit, mini_models):
        perf = PerfCounters()
        registry = DesignRegistry(perf=perf)
        registry.register("adder3", adder_circuit, mini_models)
        first = registry.engine("adder3")
        second = registry.engine("adder3")
        assert first is second
        assert perf.sta_serve_design_loads == 1
        assert registry.resident_bytes == design_nbytes(first.design) > 0

    def test_concurrent_cold_queries_build_once(
        self, adder_circuit, mini_models
    ):
        perf = PerfCounters()
        registry = DesignRegistry(perf=perf)
        registry.register("adder3", adder_circuit, mini_models)
        engines = []
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait()
            engines.append(registry.engine("adder3"))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(e) for e in engines}) == 1
        assert perf.sta_serve_design_loads == 1

    def test_register_and_first_query_flatten_once(
        self, adder_circuit, mini_models, monkeypatch
    ):
        import repro.core.sta_compiled as sta_compiled
        import repro.serve.registry as registry_module

        calls = []
        real = sta_compiled.flatten_parasitics

        def counting(circuit, models):
            calls.append(circuit.name)
            return real(circuit, models)

        monkeypatch.setattr(sta_compiled, "flatten_parasitics", counting)
        monkeypatch.setattr(
            registry_module, "flatten_parasitics", counting, raising=False
        )
        registry = DesignRegistry()
        registry.register("adder3", adder_circuit, mini_models)
        registry.engine("adder3")
        assert calls == ["adder3"]
        # The pass is not kept resident once the compile has used it.
        assert registry._entries["adder3"].flat is None

    def test_stats_snapshot(self, adder_circuit, mini_models):
        registry = DesignRegistry()
        registry.register("adder3", adder_circuit, mini_models)
        cold = registry.stats()
        assert cold["designs"][0]["resident"] is False
        assert cold["resident_bytes"] == 0
        registry.engine("adder3")
        warm = registry.stats()
        assert warm["designs"][0]["resident"] is True
        assert warm["designs"][0]["queries"] == 1
        assert warm["resident_bytes"] > 0


class TestEviction:
    def test_lru_evicts_least_recently_queried(
        self, adder_circuit, second_circuit, mini_models, tmp_path
    ):
        journal = RunJournal(tmp_path / "serve.jsonl")
        perf = PerfCounters(journal=journal)
        # Budget fits exactly one design: loading the second must evict
        # the first.
        registry = DesignRegistry(perf=perf, budget_bytes=1)
        registry.register("adder3", adder_circuit, mini_models)
        registry.register("adder2", second_circuit, mini_models)

        registry.engine("adder3")
        registry.engine("adder2")
        stats = {d["name"]: d for d in registry.stats()["designs"]}
        assert stats["adder3"]["resident"] is False
        assert stats["adder2"]["resident"] is True
        assert perf.sta_serve_evictions == 1

        # The evicted design is still registered and still serves — it
        # reloads, evicting the other in turn.
        engine = registry.engine("adder3")
        assert engine.analyze().critical_delay > 0
        assert perf.sta_serve_design_loads == 3
        assert perf.sta_serve_evictions == 2

        journal.close()
        events = [e["event"] for e in read_journal(journal.path)]
        assert events.count("serve_design_load") == 3
        assert events.count("serve_evict") == 2

    def test_design_being_served_is_never_evicted(
        self, adder_circuit, mini_models
    ):
        perf = PerfCounters()
        registry = DesignRegistry(perf=perf, budget_bytes=1)
        registry.register("adder3", adder_circuit, mini_models)
        # Alone and over budget: it must stay resident anyway.
        engine = registry.engine("adder3")
        assert registry.stats()["designs"][0]["resident"] is True
        assert perf.sta_serve_evictions == 0
        assert registry.engine("adder3") is engine

    def test_no_budget_means_no_eviction(
        self, adder_circuit, second_circuit, mini_models
    ):
        perf = PerfCounters()
        registry = DesignRegistry(perf=perf)
        registry.register("adder3", adder_circuit, mini_models)
        registry.register("adder2", second_circuit, mini_models)
        registry.engine("adder3")
        registry.engine("adder2")
        assert all(d["resident"] for d in registry.stats()["designs"])
        assert perf.sta_serve_evictions == 0


class TestDesignNbytes:
    def test_counts_tensors(self, adder_circuit, mini_models):
        registry = DesignRegistry()
        registry.register("adder3", adder_circuit, mini_models)
        design = registry.engine("adder3").design
        nbytes = design_nbytes(design)
        # At least the obvious dense arrays are counted.
        floor = (
            design.net_load.nbytes
            + design.end_elmore.nbytes
            + design.arcs.mu_coef.nbytes
        )
        assert nbytes >= floor > 0
