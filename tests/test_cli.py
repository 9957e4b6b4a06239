"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_analyze_args(self):
        args = build_parser().parse_args(
            ["analyze", "c432", "--samples", "50", "--width", "8"])
        assert args.circuit == "c432"
        assert args.samples == 50

    def test_robustness_flag_defaults(self):
        args = build_parser().parse_args(["characterize"])
        assert args.max_retries == 0
        assert args.task_timeout is None
        assert args.quarantine_budget == 0
        assert args.resume is True
        assert args.journal == ""

    def test_robustness_flags_parse(self):
        args = build_parser().parse_args([
            "characterize", "--max-retries", "2", "--task-timeout", "30",
            "--quarantine-budget", "-1", "--no-resume",
            "--journal", "run.jsonl",
        ])
        assert args.max_retries == 2
        assert args.task_timeout == 30.0
        assert args.quarantine_budget == -1
        assert args.resume is False
        assert args.journal == "run.jsonl"

    def test_pack_args(self):
        args = build_parser().parse_args(
            ["pack", "c432", "ADD", "-o", "out", "--library"])
        assert args.circuits == ["c432", "ADD"]
        assert args.output == "out"
        assert args.library is True

    def test_unpack_and_inspect_args(self):
        args = build_parser().parse_args(["unpack", "d.rpk", "-o", "d.json"])
        assert args.file == "d.rpk"
        assert args.output == "d.json"
        assert args.no_verify is False
        args = build_parser().parse_args(["inspect", "d.rpk"])
        assert args.file == "d.rpk"

    def test_serve_pack_defaults_off(self):
        args = build_parser().parse_args(["serve", "ADD"])
        assert args.pack == ""
        args = build_parser().parse_args(["serve", "ADD", "--pack", "packs"])
        assert args.pack == "packs"


class TestInspectUnpack:
    @pytest.fixture()
    def rpk(self, tmp_path):
        import numpy as np

        from repro.pack import write_pack

        path = tmp_path / "unit.rpk"
        write_pack(path, "unit", {"grid": np.arange(6, dtype=float),
                                  "label": "cli"},
                   meta={"who": "test"})
        return path

    def test_inspect_prints_manifest_and_verifies(self, rpk, capsys):
        assert main(["inspect", str(rpk)]) == 0
        out = capsys.readouterr().out
        assert "repro-pack v1 kind=unit" in out
        assert "meta.who = test" in out
        assert "grid" in out
        assert "digests OK" in out

    def test_inspect_fails_on_corruption(self, rpk, capsys):
        blob = bytearray(rpk.read_bytes())
        blob[-1] ^= 0xFF
        rpk.write_bytes(bytes(blob))
        assert main(["inspect", str(rpk)]) == 1
        assert "digest" in capsys.readouterr().err

    def test_unpack_emits_equivalent_json(self, rpk, tmp_path, capsys):
        out_json = tmp_path / "unit.json"
        assert main(["unpack", str(rpk), "-o", str(out_json)]) == 0
        doc = json.loads(out_json.read_text())
        assert doc == {"grid": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                       "label": "cli"}

    def test_unpack_to_stdout(self, rpk, capsys):
        assert main(["unpack", str(rpk)]) == 0
        assert json.loads(capsys.readouterr().out)["label"] == "cli"

    def test_unpack_refuses_corrupt_pack(self, rpk, capsys):
        blob = bytearray(rpk.read_bytes())
        blob[-1] ^= 0xFF
        rpk.write_bytes(bytes(blob))
        assert main(["unpack", str(rpk)]) == 1


class TestCells:
    def test_lists_library(self, capsys):
        assert main(["cells"]) == 0
        out = capsys.readouterr().out
        assert "INVx1" in out
        assert "AOI21x8" in out
        assert "Pelgrom" in out


@pytest.mark.slow
class TestEndToEnd:
    def test_characterize_writes_tables(self, tmp_path, capsys):
        out_file = tmp_path / "lib.json"
        code = main([
            "characterize", "-o", str(out_file),
            "--samples", "60", "--cells", "INVx1", "--fast",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["format"] == "repro-lvf-json"
        assert len(doc["tables"]) == 2  # both edges of pin A

    def test_characterize_emits_lintable_journal(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        code = main([
            "characterize", "-o", str(tmp_path / "lib.json"),
            "--samples", "60", "--cells", "INVx1", "--fast",
            "--cache-dir", str(tmp_path / "cache"),
            "--max-retries", "1", "--journal", str(journal),
        ])
        assert code == 0
        events = [json.loads(line) for line in journal.read_text().splitlines()]
        names = [e["event"] for e in events]
        assert names[0] == "run_start" and names[-1] == "run_finish"
        assert "task_start" in names and "task_finish" in names
        assert "checkpoint" in names
        capsys.readouterr()
        # The emitted journal passes its own lint rules.
        assert main(["lint", str(journal)]) == 0

    def test_analyze_unknown_circuit(self, capsys):
        assert main(["analyze", "not_a_circuit_xyz"]) == 2

    def test_analyze_small_unit(self, tmp_path, capsys):
        code = main([
            "analyze", "ADD", "--width", "2", "--samples", "80", "--fast",
            "--cells", "INVx1,INVx2,INVx4,INVx8,NAND2x1",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "+3σ" in out
        assert "% of path" in out


def _mini_flow_cli_args():
    """CLI knobs matching the session-cached mini flow of conftest.py.

    ``--fast`` reproduces the mini grid exactly, so these hit the
    ``.pytest_repro_cache`` artifacts the fixtures already built
    instead of re-characterizing.
    """
    from tests.conftest import CACHE_DIR, MINI_CELLS

    return [
        "--fast", "--seed", "7", "--samples", "250",
        "--cells", ",".join(MINI_CELLS),
        "--cache-dir", CACHE_DIR,
    ]


@pytest.mark.slow
class TestPackEndToEnd:
    def test_pack_inspect_unpack_round_trip(
        self, tmp_path, capsys, mini_models
    ):
        packs = tmp_path / "packs"
        code = main(
            ["pack", "ADD", "--width", "2", "-o", str(packs)]
            + _mini_flow_cli_args()
        )
        assert code == 0
        rpk = packs / "pulpino_add.rpk"
        assert rpk.exists()
        capsys.readouterr()

        assert main(["inspect", str(rpk)]) == 0
        out = capsys.readouterr().out
        assert "kind=sta_compiled" in out
        assert "digests OK" in out

        out_json = tmp_path / "design.json"
        assert main(["unpack", str(rpk), "-o", str(out_json)]) == 0
        doc = json.loads(out_json.read_text())
        assert doc["circuit_name"] == "pulpino_add"
        assert doc["levels"]

    def test_pack_flattens_once_per_design(
        self, tmp_path, capsys, mini_models, monkeypatch
    ):
        import repro.core.sta_compiled as sta_compiled
        from repro.netlist.benchmarks import attach_parasitics, build_pulpino_unit
        from repro.pack import PackFile

        calls = []
        real = sta_compiled.flatten_parasitics

        def counting(circuit, models):
            calls.append(circuit.name)
            return real(circuit, models)

        monkeypatch.setattr(sta_compiled, "flatten_parasitics", counting)
        packs = tmp_path / "packs"
        code = main(
            ["pack", "ADD", "SUB", "--width", "2", "-o", str(packs)]
            + _mini_flow_cli_args()
        )
        assert code == 0
        assert calls == ["pulpino_add", "pulpino_sub"]
        monkeypatch.undo()
        pack = PackFile.open(packs / "pulpino_add.rpk")
        try:
            recorded = pack.meta["design_cache_key"]
        finally:
            pack.close()
        circuit = build_pulpino_unit("ADD", 2)
        attach_parasitics(circuit, mini_models.tech, seed=1)  # --parasitic-seed
        assert recorded == sta_compiled.design_cache_key(circuit, mini_models)

    def test_cold_pack_encodes_each_design_once(self, tmp_path, capsys, mini_models):
        import shutil

        from repro.core.sta_compiled import COMPILE_CACHE_KIND
        from repro.pack import PackFile
        from tests.conftest import CACHE_DIR

        # The session's fitted models, without any compiled design.
        cache_dir = tmp_path / "cache"
        shutil.copytree(
            CACHE_DIR, cache_dir,
            ignore=shutil.ignore_patterns(f"{COMPILE_CACHE_KIND}_*"),
        )
        flow_args = _mini_flow_cli_args()
        flow_args[flow_args.index("--cache-dir") + 1] = str(cache_dir)
        packs = tmp_path / "packs"
        code = main(
            ["pack", "ADD", "SUB", "--width", "2", "-o", str(packs), "--perf"]
            + flow_args
        )
        assert code == 0
        assert "packs: 2 written" in capsys.readouterr().out

        def identities(paths):
            found = {}
            for path in paths:
                pack = PackFile.open(path, verify=True)
                try:
                    found[pack.meta["circuit_name"]] = pack.identity()
                finally:
                    pack.close()
            return found

        cached = identities(cache_dir.glob(f"{COMPILE_CACHE_KIND}_*.rpk"))
        written = identities(packs.glob("*.rpk"))
        assert set(written) == {"pulpino_add", "pulpino_sub"}
        assert written == cached

    def test_pack_writes_library_bundle(self, tmp_path, capsys, mini_charac):
        packs = tmp_path / "packs"
        code = main(
            ["pack", "ADD", "--width", "2", "-o", str(packs), "--library"]
            + _mini_flow_cli_args()
        )
        assert code == 0
        from repro.cells.liberty import load_library_characterization

        loaded = load_library_characterization(packs / "library.rpk")
        assert set(loaded.tables) == set(mini_charac.tables)


@pytest.mark.slow
class TestServeReadyFileCleanup:
    def test_sigterm_drain_removes_ready_file(self, tmp_path, mini_models):
        import signal
        import subprocess
        import sys
        import time

        ready = tmp_path / "sta.ready"
        sock = tmp_path / "sta.sock"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "ADD", "--width", "2",
             "--socket", str(sock), "--ready-file", str(ready)]
            + _mini_flow_cli_args(),
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and not ready.exists():
                if proc.poll() is not None:
                    pytest.fail(f"server exited early: rc={proc.returncode}")
                time.sleep(0.1)
            assert ready.exists(), "server never signalled readiness"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            # The graceful drain must remove its readiness marker — a
            # stale ready file would make a supervisor route traffic to
            # a server that is gone.
            assert not ready.exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


@pytest.mark.slow
class TestServeJournal:
    def test_serve_opens_its_journal_once_and_closes_it(
        self, tmp_path, monkeypatch, mini_models
    ):
        import repro.journal
        from repro.serve.server import STAServer

        opened = []

        class CountingJournal(repro.journal.RunJournal):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(repro.journal, "RunJournal", CountingJournal)
        monkeypatch.setattr(STAServer, "run", lambda self, **kwargs: None)
        journal = tmp_path / "serve.jsonl"
        code = main(
            ["serve", "ADD", "--width", "2",
             "--socket", str(tmp_path / "sta.sock"),
             "--journal", str(journal)]
            + _mini_flow_cli_args()
        )
        assert code == 0
        assert [j.path for j in opened] == [journal]
        assert opened[0]._fh is None  # closed on the way out
