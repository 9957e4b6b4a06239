"""Server tests: concurrency, bit-identity, admission, deadlines, audit."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.sta_compiled import CompiledSTA
from repro.journal import RunJournal, read_journal
from repro.lint import lint_journal
from repro.netlist.benchmarks import attach_parasitics
from repro.netlist.generators import build_adder
from repro.perf import PerfCounters
from repro.serve import (
    DesignRegistry,
    QueryRequest,
    ServeClient,
    ServeConfig,
    STAServer,
    start_in_thread,
)

GRID = dict(slews_ps=(10.0, 50.0), edges=("rise", "fall"))


@pytest.fixture(scope="module")
def direct_results(adder_circuit, mini_models):
    """Ground truth: the same grid straight through analyze_batch."""
    engine = CompiledSTA(adder_circuit, mini_models)
    return engine.analyze_batch(QueryRequest(design="adder3", **GRID).scenarios())


@pytest.fixture()
def served(adder_circuit, mini_models, tmp_path):
    """A live server on a unix socket with a journal; yields the parts."""
    journal = RunJournal(tmp_path / "serve.jsonl")
    perf = PerfCounters(journal=journal)
    registry = DesignRegistry(perf=perf)
    registry.register("adder3", adder_circuit, mini_models)
    server = STAServer(
        registry,
        ServeConfig(max_concurrency=4, queue_depth=64),
        perf=perf,
    )
    socket_path = str(tmp_path / "sta.sock")
    handle = start_in_thread(server, socket_path=socket_path)
    client = ServeClient(socket_path=socket_path)
    yield client, server, perf, journal
    handle.stop()
    journal.close()


def _assert_bit_identical(response, direct, levels):
    assert response.ok, (response.code, response.error, response.diagnostics)
    assert len(response.results) == len(direct)
    for served_r, direct_r in zip(response.results, direct):
        assert served_r.critical_delay_s == direct_r.critical_delay
        for n in levels:
            assert served_r.quantiles_s[n] == direct_r.critical_path.total(n)
            assert (
                served_r.correlated_quantiles_s[n]
                == direct_r.correlated_quantiles[n]
            )


class TestConcurrentQueries:
    N_QUERIES = 32

    def test_concurrent_burst_is_bit_identical_and_loses_no_counts(
        self, served, direct_results
    ):
        client, server, perf, _ = served
        request = QueryRequest(design="adder3", **GRID)

        with ThreadPoolExecutor(max_workers=16) as pool:
            responses = list(
                pool.map(lambda _: client.query(request), range(self.N_QUERIES))
            )

        for response in responses:
            _assert_bit_identical(response, direct_results, request.levels)

        # Counter exactness under concurrency: nothing lost to races.
        n_scenarios = request.n_scenarios
        assert perf.sta_serve_requests == self.N_QUERIES
        assert perf.sta_serve_scenarios == self.N_QUERIES * n_scenarios
        assert perf.sta_scenarios == self.N_QUERIES * n_scenarios
        assert perf.sta_serve_rejects == 0
        stats = client.stats()
        assert stats["served"] == self.N_QUERIES
        assert stats["peak_active"] <= server.config.max_concurrency

    def test_journal_audit_trail_lints_clean(self, served, tmp_path):
        client, _, _, journal = served
        request = QueryRequest(design="adder3", **GRID)
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(lambda _: client.query(request), range(8)))
        assert all(r.ok for r in responses)
        # A reject shows up in the same trail.
        bad = client.request({"op": "query", "design": "adder3", "slews_ps": [-1.0]})
        assert bad["code"] == "invalid"

        report = lint_journal(journal.path)
        assert not report.errors, [d.render() for d in report.errors]
        events = [e["event"] for e in read_journal(journal.path)]
        assert events.count("serve_admit") == 8
        assert events.count("serve_start") == 8
        assert events.count("serve_finish") == 8
        assert events.count("serve_reject") == 1


class TestRejects:
    def test_invalid_request_carries_lint_diagnostics(self, served):
        client, _, perf, _ = served
        doc = {
            "op": "query",
            "design": "adder3",
            "slews_ps": [-5.0],
            "edges": ["sideways"],
            "bogus_field": 1,
        }
        response = client.request(doc)
        assert response["ok"] is False
        assert response["code"] == "invalid"
        rendered = "\n".join(response["diagnostics"])
        assert "SRV001" in rendered  # unknown field
        assert "SRV002" in rendered  # bad slew / bad edge
        assert perf.sta_serve_rejects >= 1

    def test_unknown_design(self, served):
        client, _, _, _ = served
        response = client.request({"op": "query", "design": "missing"})
        assert response["code"] == "unknown_design"
        assert "adder3" in response["error"]

    def test_unknown_op_and_malformed_json(self, served):
        client, _, _, _ = served
        assert client.request({"op": "frobnicate"})["code"] == "invalid"
        # Raw garbage down the socket still gets a structured answer.
        import socket as socket_mod

        with socket_mod.socket(socket_mod.AF_UNIX) as sock:
            sock.connect(client.socket_path)
            sock.sendall(b"{not json}\n")
            raw = sock.recv(65536)
        assert json.loads(raw.decode())["code"] == "invalid"

    def test_oversized_scenario_grid_is_rejected(
        self, adder_circuit, mini_models, tmp_path
    ):
        registry = DesignRegistry()
        registry.register("adder3", adder_circuit, mini_models)
        server = STAServer(registry, ServeConfig(max_scenarios=4))
        handle = start_in_thread(
            server, socket_path=str(tmp_path / "s.sock")
        )
        try:
            client = ServeClient(socket_path=str(tmp_path / "s.sock"))
            response = client.query(
                QueryRequest(design="adder3", slews_ps=(1.0, 2.0, 3.0),
                             edges=("rise", "fall"))
            )
            assert response.code == "invalid"
            assert any("SRV003" in d for d in response.diagnostics)
        finally:
            handle.stop()


class TestAdmissionControl:
    def _run(self, server, coro_fn):
        """Run coro_fn() against a started server inside one event loop."""

        async def main():
            await server.start(socket_path=None, host="127.0.0.1", port=0)
            try:
                return await coro_fn()
            finally:
                server.stop()
                await server.serve_until_stopped()

        return asyncio.run(main())

    def test_full_queue_rejects_busy(
        self, adder_circuit, mini_models, monkeypatch
    ):
        registry = DesignRegistry()
        registry.register("adder3", adder_circuit, mini_models)
        perf = PerfCounters()
        server = STAServer(
            registry, ServeConfig(max_concurrency=1, queue_depth=1), perf=perf
        )
        release = threading.Event()
        entered = threading.Event()
        real_run = server._run_query

        def slow_run(request):
            entered.set()
            release.wait(timeout=10.0)
            return real_run(request)

        monkeypatch.setattr(server, "_run_query", slow_run)
        doc = {"op": "query", "design": "adder3"}

        async def scenario():
            loop = asyncio.get_running_loop()
            first = asyncio.ensure_future(server.handle(dict(doc)))
            await loop.run_in_executor(None, entered.wait, 10.0)
            second = asyncio.ensure_future(server.handle(dict(doc)))
            await asyncio.sleep(0.05)  # let the second reach the queue
            third = await server.handle(dict(doc))
            release.set()
            return third, await first, await second

        third, first, second = self._run(server, scenario)
        assert first["ok"] and second["ok"]
        assert third["ok"] is False
        assert third["code"] == "busy"
        assert perf.sta_serve_rejects == 1

    def test_deadline_miss_answers_immediately(
        self, adder_circuit, mini_models, monkeypatch
    ):
        registry = DesignRegistry()
        registry.register("adder3", adder_circuit, mini_models)
        perf = PerfCounters()
        server = STAServer(registry, ServeConfig(max_concurrency=1), perf=perf)
        release = threading.Event()

        def stuck_run(request):
            release.wait(timeout=10.0)
            raise AssertionError("result after deadline must be discarded")

        monkeypatch.setattr(server, "_run_query", stuck_run)

        async def scenario():
            out = await server.handle(
                {"op": "query", "design": "adder3", "deadline_s": 0.05}
            )
            release.set()
            return out

        response = self._run(server, scenario)
        assert response["code"] == "deadline"
        assert perf.sta_serve_deadline_misses == 1

    def test_worker_exception_returns_error_code(
        self, adder_circuit, mini_models, monkeypatch
    ):
        registry = DesignRegistry()
        registry.register("adder3", adder_circuit, mini_models)
        server = STAServer(registry, ServeConfig(max_concurrency=1))

        def broken_run(request):
            raise RuntimeError("tensor bank went missing")

        monkeypatch.setattr(server, "_run_query", broken_run)

        async def scenario():
            return await server.handle({"op": "query", "design": "adder3"})

        response = self._run(server, scenario)
        assert response["code"] == "error"
        assert "tensor bank went missing" in response["error"]


class TestEvictionMidFlight:
    def test_concurrent_queries_survive_lru_thrash(
        self, adder_circuit, mini_models, tech, direct_results
    ):
        second = build_adder(2, name="adder2")
        attach_parasitics(second, tech, seed=11)
        perf = PerfCounters()
        # Budget of one byte: every cross-design load evicts the other,
        # so queries race against eviction of the engine they just used.
        registry = DesignRegistry(perf=perf, budget_bytes=1)
        registry.register("adder3", adder_circuit, mini_models)
        registry.register("adder2", second, mini_models)
        server = STAServer(registry, ServeConfig(max_concurrency=4))

        request3 = QueryRequest(design="adder3", **GRID)
        request2 = QueryRequest(design="adder2", **GRID)
        direct2 = CompiledSTA(second, mini_models).analyze_batch(
            request2.scenarios()
        )

        async def scenario():
            jobs = []
            for i in range(16):
                doc = (request3 if i % 2 == 0 else request2).to_dict()
                doc["op"] = "query"
                jobs.append(server.handle(doc))
            return await asyncio.gather(*jobs)

        responses = TestAdmissionControl()._run(server, scenario)
        for i, doc in enumerate(responses):
            assert doc["ok"], doc
            expected = direct_results if i % 2 == 0 else direct2
            for served_r, direct_r in zip(doc["results"], expected):
                assert served_r["critical_delay_s"] == direct_r.critical_delay
        assert perf.sta_serve_evictions >= 1


class TestHttpTransport:
    @pytest.fixture()
    def http_served(self, adder_circuit, mini_models):
        registry = DesignRegistry()
        registry.register("adder3", adder_circuit, mini_models)
        server = STAServer(registry, ServeConfig(max_concurrency=2))
        handle = start_in_thread(server, host="127.0.0.1", port=0)
        yield server
        handle.stop()

    def test_query_and_stats_over_http(
        self, http_served, direct_results
    ):
        client = ServeClient(host="127.0.0.1", port=http_served.port)
        response = client.query(QueryRequest(design="adder3", **GRID))
        _assert_bit_identical(
            response, direct_results, QueryRequest(design="adder3").levels
        )
        assert client.designs() == ["adder3"]
        assert client.ping()
        assert client.stats()["served"] == 1

    def test_http_status_codes(self, http_served):
        conn = http.client.HTTPConnection("127.0.0.1", http_served.port)
        conn.request("POST", "/query", body=json.dumps({"design": "nope"}),
                     headers={"Content-Type": "application/json"})
        assert conn.getresponse().status == 404
        conn = http.client.HTTPConnection("127.0.0.1", http_served.port)
        conn.request("GET", "/healthz")
        assert conn.getresponse().status == 200
        conn = http.client.HTTPConnection("127.0.0.1", http_served.port)
        conn.request("GET", "/no-such-route")
        assert conn.getresponse().status == 400
