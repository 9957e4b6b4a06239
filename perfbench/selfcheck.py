"""Fast self-check: run every workload tiny and validate what it prints.

Run from the repository root (about two minutes)::

    python3 perfbench/selfcheck.py

Checks, in order:

1. ``BENCHMARK.json`` itself against the benchmark contract (keys,
   name/unit syntax, bounds, a ``setup_s`` metric, paths, command);
2. every workload at ``--tiny`` size, untraced and traced: exit code 0,
   and a last stdout line that is a JSON object with exactly
   ``correct``/``attempted``/``failed``/``metrics``, whose metrics are
   exactly BENCHMARK.json's ``end_to_end`` (untraced) or ``per_layer``
   (traced) names, each a finite number with the declared unit, and
   that passed its oracle checks;
3. a directory holding only ``BENCHMARK.json`` and the benchmark's own
   files: the command must fail there without printing a result.

Exits 1 on the first malformed record, after printing why.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec: dict) -> list:
    """Contract violations of a BENCHMARK.json document."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        problems.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
        return problems
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        problems.append("command must be 1-32 strings of <= 200 chars")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must hold 1-16 entries")
    for p in paths:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            problems.append(f"bad path {p!r}")
    for c in cmd[1:]:
        if "/" in c and not any(c == p or c.startswith(p + "/") for p in paths):
            problems.append(f"command names {c!r} outside paths")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        problems.append("run_seconds must be an integer in 1..60")
    names = []
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2-8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"bad workload entry {w}")
        names.append(w["name"])
    if not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("need 1-16 end_to_end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("need 1-128 per_layer metrics")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            problems.append(f"bad end_to_end entry {m}")
        elif not 0 < m["bound"] <= 0.25:
            problems.append(f"{m['name']}: bound must be in (0, 0.25]")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"bad per_layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m.get("name", ""))
        if not UNIT.match(m.get("unit", "")):
            problems.append(f"bad unit {m.get('unit')!r}")
        if m.get("better") not in ("lower", "higher"):
            problems.append(f"{m.get('name')}: better must be lower/higher")
    for n in names:
        if not NAME.match(n):
            problems.append(f"bad name {n!r}")
    if len(names) != len(set(names)):
        problems.append("names must be unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (unit s, better lower) is required")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("BENCHMARK.json over 64 KiB")
    return problems


def check_result(line: str, specs: list) -> list:
    """Contract violations of one printed result line."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON: {exc}: {line[:200]!r}"]
    if not isinstance(doc, dict) or set(doc) != RESULT_KEYS:
        return [f"result keys {sorted(doc) if isinstance(doc, dict) else doc!r}"]
    problems = []
    if doc["correct"] is not True:
        problems.append("correct is not true")
    for key, low in (("attempted", 1), ("failed", 0)):
        v = doc[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < low:
            problems.append(f"{key} must be an integer >= {low}, got {v!r}")
    if doc["failed"] != 0:
        problems.append(f"{doc['failed']} failed operation(s)")
    metrics = doc["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if not isinstance(metrics, dict) or set(metrics) != set(want):
        return problems + [f"metric names differ: {sorted(set(metrics) ^ set(want))}"]
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            problems.append(f"{name}: bad entry {m}")
        elif not (isinstance(m["value"], (int, float))
                  and not isinstance(m["value"], bool)
                  and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m['value']!r} is not a finite number")
    return problems


def run_command(cmd: list, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    if problems:
        print("BENCHMARK.json:", *problems, sep="\n  ")
        return 1
    print("BENCHMARK.json: ok")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", "1", "--seconds", "2",
                "--trace", str(trace), "--tiny"]
            t0 = time.perf_counter()
            proc = run_command(cmd, ROOT)
            lines = proc.stdout.strip().splitlines()
            problems = ([f"exit code {proc.returncode}"]
                        if proc.returncode else [])
            problems += check_result(lines[-1] if lines else "",
                                     spec["per_layer" if trace else "end_to_end"])
            label = f"{workload} trace={trace}"
            if problems:
                print(f"{label}: FAILED", *problems, proc.stderr[-2000:],
                      sep="\n  ")
                return 1
            print(f"{label}: ok ({time.perf_counter() - t0:.1f}s)")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_command(spec["command"] + [
            "--workload", spec["workloads"][0]["name"], "--seed", "1",
            "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        print("bare directory: FAILED (expected a non-zero exit and no result)")
        return 1
    print(f"bare directory: ok (exit {proc.returncode}, no result)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
