"""Tests of the JSONL run journal and its lint rules (RUN001–RUN003)."""

import json

import pytest

from repro.journal import KNOWN_EVENTS, RunJournal, read_journal
from repro.lint import lint_artifact, lint_journal
from repro.perf import PerfCounters


class TestRunJournal:
    def test_events_carry_monotonic_seq_and_offsets(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, run_id="r1") as journal:
            journal.run_start(seed=7, workers=4)
            journal.event("task_finish", task=0, label="a", attempts=1)
            journal.event("checkpoint", key="abc", arc=["INVx1", "A", "fall"])
            journal.run_finish(arcs=1)
        events = read_journal(path)
        assert [e["event"] for e in events] == [
            "run_start", "task_finish", "checkpoint", "run_finish"]
        assert [e["seq"] for e in events] == [0, 1, 2, 3]
        assert all(e["t_s"] >= 0 for e in events)
        assert events[0]["run_id"] == "r1" and events[0]["seed"] == 7
        assert events[-1]["status"] == "ok"

    def test_append_mode_stacks_resume_runs(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as first:
            first.run_start()
        with RunJournal(path) as second:  # a resume run appends
            second.run_start()
            second.run_finish()
        events = read_journal(path)
        assert len(events) == 3
        assert [e["seq"] for e in events] == [0, 0, 1]  # seq resets per run

    def test_closed_journal_raises(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.close()
        with pytest.raises(ValueError, match="closed"):
            journal.event("note", text="too late")

    def test_perf_snapshot_round_trips_counters(self, tmp_path):
        path = tmp_path / "run.jsonl"
        perf = PerfCounters()
        perf.incr(task_retries=3, cache_corrupt=1)
        with RunJournal(path) as journal:
            journal.perf_snapshot(perf, stage="characterize")
        (event,) = read_journal(path)
        restored = PerfCounters.from_dict(event["counters"])
        assert restored.task_retries == 3
        assert restored.cache_corrupt == 1
        assert event["stage"] == "characterize"

    def test_read_journal_raises_on_corrupt_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"seq": 0, "event": "note"}\n{"seq": 1, "even\n')
        with pytest.raises(ValueError, match="corrupt journal line"):
            read_journal(path)

    def test_concurrent_writers_never_tear_or_duplicate_seq(self, tmp_path):
        # The serving path journals from the event-loop thread and its
        # worker threads at once. Unlocked, two threads could read the
        # same `seq` (the flush between read and increment drops the
        # GIL) or interleave partial lines — both RUN002 violations.
        import threading

        path = tmp_path / "run.jsonl"
        n_threads, n_events = 8, 50
        barrier = threading.Barrier(n_threads)
        with RunJournal(path) as journal:

            def writer(tid: int) -> None:
                barrier.wait()
                for i in range(n_events):
                    journal.event("note", thread=tid, i=i)

            threads = [
                threading.Thread(target=writer, args=(t,))
                for t in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        events = read_journal(path)  # raises on any torn line
        assert [e["seq"] for e in events] == list(range(n_threads * n_events))
        report = lint_journal(path)
        assert not report.errors, [d.render() for d in report.errors]

    def test_all_emitted_events_are_known(self, tmp_path):
        # The executor/flow emit only vocabulary events; a typo here
        # would make every journal fail lint.
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            for name in sorted(KNOWN_EVENTS):
                journal.event(name)
        report = lint_journal(path)
        assert not [d for d in report.diagnostics if d.rule_id == "RUN002"]


class TestExecutorJournaling:
    def test_parallel_map_event_stream(self, tmp_path):
        from repro.parallel import RetryPolicy, parallel_map
        from tests.test_failure_injection import _always_fail, _fail_until_sentinel

        path = tmp_path / "run.jsonl"
        tasks = [(0, str(tmp_path / "sentinel"))]
        with RunJournal(path) as journal:
            parallel_map(
                _fail_until_sentinel, tasks, workers=1,
                policy=RetryPolicy(max_retries=1, backoff_s=0.01),
                perf=PerfCounters(journal=journal))
            parallel_map(
                _always_fail, ["bad"], workers=1, quarantine=[],
                labels=["the-bad-one"], perf=PerfCounters(journal=journal))
        names = [e["event"] for e in read_journal(path)]
        assert names == ["task_start", "task_retry", "task_finish",
                         "task_start", "task_quarantine"]
        assert lint_journal(path).ok
    def _write(self, tmp_path, lines):
        path = tmp_path / "run.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        return path

    def test_healthy_journal_is_clean(self, tmp_path):
        path = self._write(tmp_path, [
            {"seq": 0, "t_s": 0.0, "event": "run_start", "run_id": "r"},
            {"seq": 1, "t_s": 0.1, "event": "task_finish", "task": 0},
            {"seq": 2, "t_s": 0.2, "event": "run_finish", "status": "ok"},
        ])
        report = lint_journal(path)
        assert report.ok and len(report.diagnostics) == 0

    def test_unparseable_line_is_run002_error(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"seq": 0, "event": "note"}\nnot json at all\n')
        report = lint_journal(path)
        assert not report.ok
        assert [d.rule_id for d in report.errors] == ["RUN002"]

    def test_unknown_event_and_bad_seq_are_run002(self, tmp_path):
        path = self._write(tmp_path, [
            {"seq": 0, "event": "mystery_event"},
            {"seq": 5, "event": "note"},  # jumps from 0 to 5
            {"event": "note"},  # no seq at all
        ])
        report = lint_journal(path)
        messages = [d.message for d in report.diagnostics]
        assert any("unknown journal event" in m for m in messages)
        assert any("non-monotonic" in m for m in messages)
        assert any("no integer 'seq'" in m for m in messages)

    def test_seq_reset_after_resume_is_legal(self, tmp_path):
        path = self._write(tmp_path, [
            {"seq": 0, "event": "run_start"},
            {"seq": 1, "event": "run_finish", "status": "error"},
            {"seq": 0, "event": "run_start"},  # resume run appended
            {"seq": 1, "event": "run_finish", "status": "ok"},
        ])
        report = lint_journal(path)
        assert report.ok and len(report.diagnostics) == 0

    def test_quarantine_events_surface_as_run001(self, tmp_path):
        path = self._write(tmp_path, [
            {"seq": 0, "event": "arc_quarantine", "cell": "INVx2", "pin": "A",
             "edge": "fall", "error_type": "CharacterizationError",
             "message": "injected"},
        ])
        report = lint_journal(path)
        assert report.ok  # warning, not error
        (diag,) = report.diagnostics
        assert diag.rule_id == "RUN001"
        assert "INVx2/A/fall" in diag.message

    def test_interrupted_run_is_run003(self, tmp_path):
        path = self._write(tmp_path, [
            {"seq": 0, "event": "run_start", "run_id": "doomed"},
            {"seq": 1, "event": "task_finish", "task": 0},
        ])
        report = lint_journal(path)
        assert report.ok
        (diag,) = report.diagnostics
        assert diag.rule_id == "RUN003"
        assert "doomed" in diag.message

    def test_lint_artifact_dispatches_jsonl(self, tmp_path):
        path = self._write(tmp_path, [{"seq": 0, "event": "run_start"}])
        report = lint_artifact(path)
        assert any(d.rule_id == "RUN003" for d in report.diagnostics)


class TestJournalCli:
    def test_repro_lint_accepts_clean_journal(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "run.jsonl"
        with RunJournal(path, run_id="cli") as journal:
            journal.run_start(seed=1)
            journal.run_finish()
        assert main(["lint", str(path)]) == 0
        capsys.readouterr()

    def test_repro_lint_fails_on_corrupt_journal(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "run.jsonl"
        path.write_text("garbage that is not json\n")
        assert main(["lint", str(path)]) == 1
        assert "RUN002" in capsys.readouterr().out
