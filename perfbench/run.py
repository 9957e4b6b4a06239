"""End-to-end benchmark of the calibration → STA → serving pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload calibrate|sta|serve --seed N \\
        --seconds S --trace 0|1

Each workload drives one part of the pipeline through public functions
and measures it for at least ``--seconds`` seconds (see METHODOLOGY.md):

* ``calibrate`` — cold cache → ``characterize()`` → ``fit_models()``;
* ``sta`` — cold compile, warm reopen, scalar path report and warm
  batch queries of c3540 + c7552 on the committed 16-cell fixture;
* ``serve`` — a closed-loop client over one unix-socket connection
  against a server process holding c432, c3540 and c7552 under an LRU
  budget smaller than the three designs.

Every workload reports the same end-to-end metrics, each measured on
the phase the workload drives (see METHODOLOGY.md): ``setup_s``, the
mean wall time of one of its operations (``op_mean_s``), the worst
±3σ error of the models it uses (``nsigma_err_pct``) and its peak RSS.

``--trace 1`` reports the per-layer metrics instead: the phase figures
of the workload (``compile_s``, ``serve_p99_ms``, ...), self time of the
package's public entry points (wrapped from ``tracing.py``), work
counters, and the tracing overhead. ``--tiny`` shrinks every workload
for ``selfcheck.py``.

The last line of standard output is the JSON result. The full record
(host, samples, errors) is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pipeline  # noqa: E402
import recipe  # noqa: E402
from tracing import Tracer, span_cost_s  # noqa: E402

OUT_DIR = pipeline.ROOT / ".perfbench_out"
WORK_ROOT = pipeline.ROOT / ".perfbench_work"

#: Oracle tolerances.
TABLE_RTOL = 1e-9
ENGINE_ATOL_S = 1e-12

STA_DESIGNS = ("c3540", "c7552")
STA_WIDTHS = (1, 16, 64)
STA_RELOAD_REPEATS = 2
STA_BATCH_ROUNDS = 2
SERVE_DESIGNS = ("c432", "c3540", "c7552")
#: Registry budget: below the three designs' combined pack-backed
#: resident bytes (0.48 + 1.54 + 2.96 = 4.98 MiB; 0.57 + 1.83 + 3.50 MiB
#: when compiled in process), so the mix evicts, but above c3540 + c7552
#: (4.50 MiB). About a third of the requests then reload a design from
#: its pack.
SERVE_LRU_BYTES = int(4.75 * 1024 * 1024)
SERVE_MIN_REQUESTS = 300
SERVE_WIDTHS = (1, 1, 2, 4, 8)
SERVE_SLEWS_PS = (10.0, 15.0, 20.0, 30.0, 40.0, 50.0, 60.0, 80.0, 100.0,
                  130.0, 160.0, 200.0, 250.0)
SERVE_SETS_PER_WIDTH = 3
SERVE_BOOTS = 2
#: Closed-loop time before the window: the client's connection, the
#: server's worker threads and its LRU reach their steady state.
SERVE_WARMUP_S = 1.0
TINY_DESIGN = "c432"
SETUP_REPEATS = 3


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------
class Run:
    """Counters, oracle verdicts and samples of one benchmark run."""

    def __init__(self, seed: int, seconds: float, trace: bool, tiny: bool,
                 work: Path):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.work = work
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: List[str] = []
        self.samples: Dict[str, list] = {}
        self.tracer: Optional[Tracer] = Tracer() if trace else None

    def op(self, label: str, fn: Callable, *args, **kwargs):
        """Run one counted operation; a raised error counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.correct = False
            self.errors.append(f"{label}: {traceback.format_exc()}")
            print(f"operation {label} failed", file=sys.stderr)
            return None

    def check(self, ok: bool, message: str) -> None:
        """Record one oracle verdict; a miss is a failed operation."""
        if not ok:
            self.failed += 1
            self.correct = False
            self.errors.append(f"oracle: {message}")
            print(f"oracle failed: {message}", file=sys.stderr)

    def sample(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(value)

    def span(self, name: str):
        """A tracer span in a traced run, else nothing."""
        return self.tracer.span(name) if self.tracer is not None else nullcontext()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    """Window mean of a repeated phase's times.

    The host alternates between a fast and a slow speed every few
    seconds, so the median of a handful of multi-second samples jumps
    between the two modes from run to run; the mean moves with the
    share of time spent in each and is the steadier of the two.
    """
    return float(statistics.fmean(values))


def timed(fn: Callable, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_start_s(statement: str) -> float:
    """Wall time of a fresh interpreter that imports the package and runs ``statement``."""
    code = (f"import sys; sys.path.insert(0, {str(pipeline.BENCH_DIR)!r}); "
            f"import pipeline; pipeline.import_package(); {statement}")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=pipeline.ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def host_info() -> dict:
    """Where the numbers came from."""
    import numpy
    from repro.kernels import backend_identity

    sha = "unknown"
    if (pipeline.ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=pipeline.ROOT,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "kernel_backend": backend_identity(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


# ----------------------------------------------------------------------
# calibrate
# ----------------------------------------------------------------------
def run_calibrate(run: Run) -> dict:
    from repro.cells.liberty import load_library_characterization

    cells = list(recipe.CALIBRATE_CELLS)
    both_edges, wire_samples = True, recipe.CALIBRATE_WIRE_SAMPLES
    if run.tiny:
        cells = [c for c in cells if c.startswith("INV")]
        both_edges, wire_samples = False, 20
    run.rng.shuffle(cells)

    reference = load_library_characterization(
        pipeline.FIXTURES / recipe.CALIBRATE_REFERENCE_FILE)
    golden = [p for p in pipeline.golden_points()
              if p["cell"] in cells and (both_edges or not p["rising"])]
    # In-process set-up is milliseconds; what a user waits for before a
    # calibration starts is a fresh interpreter importing the package
    # and building the flow.
    setup_times = [
        cold_start_s(f"pipeline.calibrate_flow(pipeline.ROOT, {cells!r})")
        for _ in range(1 if run.tiny else SETUP_REPEATS)
    ]

    flows = []
    start = time.perf_counter()
    while not flows or time.perf_counter() - start < run.seconds:
        cache = run.work / f"calibrate-{len(flows)}"
        flow = pipeline.calibrate_flow(cache, cells, both_edges=both_edges,
                                       wire_samples=wire_samples)
        flows.append(flow)
        t_char, charac = timed(run.op, "characterize", flow.characterize)
        if charac is None:
            continue
        t_fit, models = timed(run.op, "fit_models", flow.fit_models)
        shutil.rmtree(cache, ignore_errors=True)
        if models is None:
            continue
        run.sample("calibrate_s", t_char + t_fit)
        run.check(not charac.quarantined,
                  f"{len(charac.quarantined)} quarantined arc(s)")
        diff = pipeline.tables_max_rel_diff(charac, reference, subset=run.tiny)
        run.check(diff <= TABLE_RTOL,
                  f"tables differ from the committed reference by "
                  f"{diff:.3g} relative (tolerance {TABLE_RTOL})")
        run.sample("nsigma_err_pct", pipeline.nsigma_error_pct(models, golden))
    rss = peak_rss_mib()

    nan = [float("nan")]
    calibrate_s = mean(run.samples.get("calibrate_s", nan))
    if run.trace:
        return {"calibrate_s": calibrate_s, **calibrate_layers(run, flows)}
    return {
        "setup_s": median(setup_times),
        "op_mean_s": calibrate_s,
        "nsigma_err_pct": median(run.samples.get("nsigma_err_pct", nan)),
        "peak_rss_mb": rss,
    }


def calibrate_layers(run: Run, flows) -> dict:
    """Per-calibration layer times and counters."""
    from repro.perf import PerfCounters

    n = len(flows)
    perf = PerfCounters()
    for flow in flows:
        perf.merge(flow.perf_report())
    counts = perf.to_dict()
    ops = counts["kernel_ops"]
    self_s = run.tracer.self_times()
    layers = {
        f"{name}_s": self_s.get(name, 0.0) / n
        for name in ("cells.characterize", "core.fit_models", "spice.simulate",
                     "core.nsigma_fit", "core.calibration_fit",
                     "core.wire_fit", "core.correlation", "lint.library")
    }
    layers.update({
        "spice.simulations": counts["simulations"] / n,
        "spice.transient_steps": counts["steps"] / n,
        "spice.newton_iterations": counts["newton_iterations"] / n,
        "spice.linear_solves": counts["linear_solves"] / n,
        "kernels.device_eval_ops": sum(
            v for k, v in ops.items() if k.endswith(".device_eval")) / n,
        "kernels.solve_stack_ops": sum(
            v for k, v in ops.items() if k.endswith(".solve_stack")) / n,
        "cache.arc_misses": counts["cache_misses"] / n,
        "spice.active_sample_fraction": perf.active_sample_fraction,
    })
    return layers


# ----------------------------------------------------------------------
# sta
# ----------------------------------------------------------------------
def batch_scenarios(rng: random.Random, width: int):
    """``width`` seeded operating points (slew, launch edge)."""
    from repro.core.sta_compiled import Scenario
    from repro.units import PS

    return [
        Scenario(input_slew=round(rng.uniform(5.0, 300.0), 1) * PS,
                 launch_rising=rng.random() < 0.5)
        for _ in range(width)
    ]


def same_batches(a, b) -> bool:
    """Exact equality of two batch results (every reported quantity)."""
    return len(a) == len(b) and all(
        x.critical_delay == y.critical_delay
        and x.critical_path.quantiles == y.critical_path.quantiles
        and x.correlated_quantiles == y.correlated_quantiles
        for x, y in zip(a, b)
    )


def engines_agree(scalar, compiled) -> float:
    """Largest gap (s) between scalar and compiled path quantiles."""
    gap = abs(scalar.critical_delay - compiled.critical_delay)
    for level, value in scalar.critical_path.quantiles.items():
        gap = max(gap, abs(value - compiled.critical_path.quantiles[level]))
    return gap


def sta_window(run: Run, models, circuits, scenarios, perf) -> int:
    """The sta window: iterations of compile, reopen, path report, batch.

    One iteration — the workload's operation — runs the four phases on
    one design, then on the other (in seeded order), so every phase is
    sampled twice per iteration at points seconds apart. Iterations
    repeat until their own time (oracle checks excluded) fills the
    window; each one's time is an ``op_s`` sample.
    """
    from repro.cache import JsonCache
    from repro.core.report import format_path_report
    from repro.core.sta import StatisticalSTA
    from repro.core.sta_compiled import CompiledSTA

    iterations, owned = 0, 0.0
    while iterations == 0 or owned < run.seconds:
        iteration_start, other_s = time.perf_counter(), 0.0
        cache_dir = run.work / f"compile-{iterations}"
        order = list(circuits)
        run.rng.shuffle(order)
        for circuit in order:
            name = circuit.name

            def open_engine():
                return CompiledSTA(circuit, models, cache=JsonCache(cache_dir),
                                   perf=perf)

            def path_report():
                result = StatisticalSTA(circuit, models).analyze()
                format_path_report(result)
                return result

            with run.span("bench.compile"):
                elapsed, cold = timed(run.op, "compile", open_engine)
            run.sample(f"compile_s {name}", elapsed)
            warm = None
            for _ in range(STA_RELOAD_REPEATS):
                with run.span("bench.reload"):
                    elapsed, warm = timed(run.op, "reload", open_engine)
                run.sample(f"reload_s {name}", elapsed)
            with run.span("bench.path_report"):
                elapsed, scalar = timed(run.op, "path report", path_report)
            run.sample(f"path_report_s {name}", elapsed)
            batches: Dict[int, list] = {}
            with run.span("bench.batch"):
                for _ in range(STA_BATCH_ROUNDS if warm is not None else 0):
                    widths = list(STA_WIDTHS)
                    run.rng.shuffle(widths)
                    for width in widths:
                        elapsed, batches[width] = timed(
                            run.op, f"batch w{width}", warm.analyze_batch,
                            scenarios[width])
                        run.sample(f"batch_s w{width} {name}", elapsed)

            if iterations == 0 and None not in (cold, warm, scalar):
                # Oracle engines get their own counters so the window's
                # work counts stay the window's.
                t0 = time.perf_counter()
                compiled = CompiledSTA(circuit, models, design=warm.design)
                gap = engines_agree(scalar, compiled.analyze())
                run.check(gap <= ENGINE_ATOL_S,
                          f"{name}: compiled vs scalar gap {gap:.3g} s")
                fresh = CompiledSTA(circuit, models, design=cold.design)
                run.check(same_batches(fresh.analyze_batch(scenarios[16]),
                                       batches.get(16) or []),
                          f"{name}: cold and reopened engines disagree")
                other_s += time.perf_counter() - t0
        iterations += 1
        elapsed = time.perf_counter() - iteration_start - other_s
        run.sample("op_s", elapsed)
        owned += elapsed
        shutil.rmtree(cache_dir, ignore_errors=True)
    return iterations


def phase_total(samples: Dict[str, list], phase: str, circuits) -> float:
    """Mean time of ``phase`` per design, summed over the designs."""
    return sum(mean(samples[f"{phase} {c.name}"]) for c in circuits)


def batch_rate(samples: Dict[str, list], circuits) -> float:
    """Scenarios priced per second over every batch call of the window."""
    scenarios = seconds = 0.0
    for width in STA_WIDTHS:
        for circuit in circuits:
            calls = samples.get(f"batch_s w{width} {circuit.name}")
            if not calls:
                return float("nan")
            scenarios += width * len(calls)
            seconds += sum(calls)
    return scenarios / seconds


def run_sta(run: Run) -> dict:
    from repro.perf import PerfCounters

    names = [TINY_DESIGN] if run.tiny else list(STA_DESIGNS)
    run.rng.shuffle(names)

    def setup():
        models = pipeline.load_library_models()
        return models, [pipeline.build_circuit(n, models.tech) for n in names]

    setup_repeats = 1 if run.tiny else SETUP_REPEATS
    setup_times = []
    for _ in range(setup_repeats):
        elapsed, (models, circuits) = timed(setup)
        setup_times.append(elapsed)
    scenarios = {w: batch_scenarios(run.rng, w) for w in STA_WIDTHS}
    perf = PerfCounters()
    iterations = sta_window(run, models, circuits, scenarios, perf)
    rss = peak_rss_mib()
    if run.trace:
        tracer = run.tracer
        self_s = tracer.self_times()
        per = float(iterations)
        reload_total = tracer.total("bench.reload")
        return {
            "compile_s": phase_total(run.samples, "compile_s", circuits),
            "reload_s": phase_total(run.samples, "reload_s", circuits),
            "path_report_s": phase_total(run.samples, "path_report_s", circuits),
            "batch_scenarios_per_s": batch_rate(run.samples, circuits),
            "sta_compiled.design_key_s":
                self_s.get("sta_compiled.design_key", 0.0) / per,
            "lint.circuit_s": self_s.get("lint.circuit", 0.0) / per,
            "cache.compile_get_s": self_s.get("cache.get", 0.0) / per,
            "cache.compile_put_s": self_s.get("cache.put", 0.0) / per,
            "sta_compiled.build_s": tracer.self_time_under(
                "sta_compiled.compile", "bench.compile") / per,
            "sta_compiled.load_s": tracer.self_time_under(
                "sta_compiled.compile", "bench.reload") / per,
            "sta.analyze_s": self_s.get("sta.analyze", 0.0) / per,
            "sta_compiled.query_w1_ms": tracer.median_ms(
                "sta_compiled.query", 1, "bench.batch"),
            "sta_compiled.query_w16_ms": tracer.median_ms(
                "sta_compiled.query", 16, "bench.batch"),
            "sta_compiled.query_w64_ms": tracer.median_ms(
                "sta_compiled.query", 64, "bench.batch"),
            "sta_compiled.design_key_share_of_reload": (
                tracer.self_time_under("sta_compiled.design_key", "bench.reload")
                / reload_total if reload_total > 0 else 0.0),
            "sta_compiled.level_sweeps": perf.sta_levels / per,
            "sta_compiled.arc_evals": perf.sta_arc_evals / per,
            "sta_compiled.compiles": perf.sta_compiles / per,
            "netlist.build_s": self_s.get("netlist.build", 0.0) / setup_repeats,
        }
    return {
        "setup_s": median(setup_times),
        "op_mean_s": mean(run.samples["op_s"]),
        "nsigma_err_pct": pipeline.nsigma_error_pct(
            models, pipeline.golden_points()),
        "peak_rss_mb": rss,
    }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class Server:
    """One launcher process; always stopped (and waited for) on exit."""

    def __init__(self, run: Run, tag: str, designs: Sequence[str],
                 budget: Optional[int]):
        self.dir = run.work / tag
        self.dir.mkdir(parents=True, exist_ok=True)
        # Relative to the checkout root (the cwd of both processes), so
        # a long checkout path cannot overflow the unix-socket path limit.
        self.socket = os.path.relpath(self.dir / "s.sock", pipeline.ROOT)
        self.ready = self.dir / "ready.json"
        self.rss = self.dir / "rss.txt"
        cmd = [sys.executable, str(pipeline.BENCH_DIR / "serve_launcher.py"),
               "--socket", self.socket, "--ready-file", str(self.ready),
               "--pack-dir", str(self.dir / "packs"),
               "--designs", ",".join(designs), "--rss-file", str(self.rss)]
        if budget is not None:
            cmd += ["--budget-bytes", str(budget)]
        self.log = (self.dir / "server.log").open("w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=pipeline.ROOT, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        try:
            deadline = t0 + 150.0
            while not self.ready.exists():
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError(
                        f"server did not become ready (exit {self.proc.poll()}); "
                        f"see {self.dir / 'server.log'}")
                time.sleep(0.005)
            self.boot_s = time.perf_counter() - t0
            self.steps = json.loads(self.ready.read_text())
        except BaseException:
            self.stop()
            raise

    def stop(self) -> Optional[float]:
        """SIGTERM, wait; returns the server's peak RSS (MiB) if reported."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        try:
            return float(self.rss.read_text())
        except (OSError, ValueError):
            return None


class Connection:
    """A persistent newline-JSON unix-socket connection."""

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(60.0)
        self.sock.connect(path)
        self.file = self.sock.makefile("rb")

    def request(self, doc: dict) -> dict:
        self.sock.sendall(json.dumps(doc).encode() + b"\n")
        line = self.file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def request_catalogue(rng: random.Random, designs: Sequence[str]) -> List[dict]:
    """Distinct query documents the seeded mix draws from."""
    catalogue = []
    for design in designs:
        for width in sorted(set(SERVE_WIDTHS)):
            for _ in range(SERVE_SETS_PER_WIDTH):
                catalogue.append({
                    "op": "query", "design": design,
                    "slews_ps": sorted(rng.sample(SERVE_SLEWS_PS, width)),
                    "edges": [rng.choice(("rise", "fall"))],
                })
    return catalogue


def request_mix(rng: random.Random, catalogue: List[dict],
                designs: Sequence[str], n: int) -> List[int]:
    """Seeded closed-loop order: uniform design, width from SERVE_WIDTHS.

    Drawn in shuffled blocks that hold every (design, width) pair once,
    so any prefix of the order has nearly the nominal mix and the seed
    changes the order, not the composition.
    """
    index: Dict[tuple, List[int]] = {}
    for i, doc in enumerate(catalogue):
        index.setdefault((doc["design"], len(doc["slews_ps"])), []).append(i)
    block = [(d, w) for d in designs for w in SERVE_WIDTHS]
    order: List[int] = []
    while len(order) < n:
        rng.shuffle(block)
        order.extend(rng.choice(index[pair]) for pair in block)
    return order[:n]


def expected_results(models, circuits, catalogue: List[dict]) -> List[list]:
    """In-process ``analyze_batch`` answers, in wire form."""
    from repro.core.sta_compiled import CompiledSTA
    from repro.serve.protocol import QueryRequest, ScenarioResult

    engines = {c.name: CompiledSTA(c, models) for c in circuits}
    out = []
    for doc in catalogue:
        request = QueryRequest.from_dict(doc)
        results = engines[request.design].analyze_batch(request.scenarios())
        wire = [ScenarioResult.from_batch_result(r).to_dict() for r in results]
        out.append(json.loads(json.dumps(wire)))
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``inf`` entries are misses)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1]


class ServeSession:
    """A booted server, its seeded request stream and the expected answers.

    :meth:`drive` runs the closed loop for a while and may be called
    several times; measured latencies and counts accumulate across calls.
    """

    def __init__(self, run: Run, designs: Sequence[str], budget: Optional[int],
                 models, boots: int):
        self.run = run
        circuits = [pipeline.build_circuit(n, models.tech) for n in designs]
        self.catalogue = request_catalogue(run.rng, designs)
        self.expected = expected_results(models, circuits, self.catalogue)
        self.order = request_mix(run.rng, self.catalogue, designs, 20000)
        self.position = 0
        self.latencies: List[float] = []
        self.served: List[float] = []
        self.overhead: List[float] = []
        self.ok = 0
        self.elapsed = 0.0
        self.boot_times = []
        for b in range(boots - 1):
            server = Server(run, f"serve-boot{b}", designs, budget)
            self.boot_times.append(server.boot_s)
            server.stop()
        self.server = Server(run, "serve", designs, budget)
        self.boot_times.append(self.server.boot_s)
        try:
            conn = Connection(self.server.socket)
            try:
                for design in designs:
                    i = next(k for k, d in enumerate(self.catalogue)
                             if d["design"] == design)
                    run.attempted += 1
                    run.check(conn.request(self.catalogue[i]).get("results")
                              == self.expected[i],
                              f"warm-up query on {design} differs from in-process")
            finally:
                conn.close()
        except BaseException:
            self.server.stop()
            raise

    def stats(self) -> dict:
        conn = Connection(self.server.socket)
        try:
            return conn.request({"op": "stats"})["stats"]
        finally:
            conn.close()

    def drive(self, seconds: float, min_requests: int, measure: bool = True) -> None:
        """Closed loop over one connection; checks every answer.

        One connection, not two: with two requests in flight the
        server's worker threads contend for the interpreter lock, each
        request took about 2.3 times as long, fewer requests were
        served per second, and the mean latency drifted with the
        host's load on its second vCPU (METHODOLOGY.md).

        With ``measure`` false (warm-up) the answers are still checked
        and counted, but their latencies and time are not recorded.
        """
        run = self.run
        records: List[tuple] = []
        error: Optional[str] = None
        start = time.perf_counter()
        try:
            conn = Connection(self.server.socket)
        except OSError as exc:
            conn, error = None, f"connect: {exc}"
        # The load generator must not pause: collector passes over this
        # process's heap would show up as server latency.
        gc.disable()
        try:
            while conn is not None and (
                    len(records) < min_requests
                    or time.perf_counter() - start < seconds):
                i = self.order[self.position % len(self.order)]
                self.position += 1
                t0 = time.perf_counter()
                try:
                    doc = conn.request(self.catalogue[i])
                except (OSError, ValueError) as exc:
                    error = f"request {self.position - 1}: {exc}"
                    break
                records.append((i, time.perf_counter() - t0, doc))
        finally:
            gc.enable()
            if conn is not None:
                conn.close()
        elapsed = time.perf_counter() - start

        run.attempted += len(records) + (error is not None)
        for i, latency, doc in records:
            ok = bool(doc.get("ok"))
            run.check(ok, f"request rejected: {doc.get('code')} {doc.get('error')}")
            if ok:
                run.check(doc.get("results") == self.expected[i],
                          f"response for catalogue entry {i} differs from "
                          f"in-process analyze_batch")
            if not measure:
                continue
            if not ok:
                self.latencies.append(float("inf"))
                continue
            self.ok += 1
            self.latencies.append(latency)
            self.served.append(float(doc["served_s"]))
            self.overhead.append(latency - float(doc["served_s"]))
        if measure:
            self.elapsed += elapsed
        if error is not None:
            run.failed += 1
            run.correct = False
            run.errors.append(error)

    def close(self) -> Optional[float]:
        """Stop the server; returns its peak RSS (MiB) if it reported one."""
        return self.server.stop()


def run_serve(run: Run) -> dict:
    designs = [TINY_DESIGN] if run.tiny else list(SERVE_DESIGNS)
    models = pipeline.load_library_models()
    session = ServeSession(
        run, designs, None if run.tiny else SERVE_LRU_BYTES, models,
        boots=1 if run.tiny else SERVE_BOOTS)
    try:
        session.drive(SERVE_WARMUP_S, 0, measure=False)
        before = session.stats()
        session.drive(run.seconds, 100 if run.tiny else SERVE_MIN_REQUESTS)
        after = session.stats()
    finally:
        rss = session.close()
    latencies = session.latencies
    run.samples["serve"] = {"boot_times": session.boot_times,
                            "steps": session.server.steps,
                            "requests": len(latencies),
                            "ok": session.ok, "elapsed": session.elapsed}
    if run.trace:
        def delta(key):
            return after["perf"][key] - before["perf"][key]

        # Per request, so a faster server (more requests in the same
        # window) does not read as more layer work.
        requests = max(1, delta("sta_serve_requests"))
        return {
            "serve_p50_ms": percentile(latencies, 50) * 1e3,
            "serve_p99_ms": percentile(latencies, 99) * 1e3,
            "serve_qps": session.ok / session.elapsed,
            "serve.service_ms_p50": median(session.served or [0.0]) * 1e3,
            "serve.overhead_ms_p50": median(session.overhead or [0.0]) * 1e3,
            "registry.design_loads": delta("sta_serve_design_loads") / requests,
            "registry.evictions": delta("sta_serve_evictions") / requests,
            "registry.reload_share": delta("sta_serve_design_loads") / requests,
            "pack.loads": delta("pack_loads") / requests,
            "pack.verifies": delta("pack_verifies") / requests,
            # A high-water mark since boot; warm-up and window send
            # alike, so the window reaches it too.
            "serve.peak_active": after["peak_active"],
            "serve.rejected": after["rejected"] - before["rejected"],
            "pack.write_s": session.server.steps["pack_write_s"],
            "pack.attach_s": session.server.steps["pack_attach_s"],
        }
    return {
        "setup_s": median(session.boot_times),
        # A reject reads as an infinite latency, so a run with one has
        # no finite mean (and is already marked incorrect).
        "op_mean_s": mean(latencies) if latencies else float("nan"),
        "nsigma_err_pct": pipeline.nsigma_error_pct(
            models, pipeline.golden_points()),
        "peak_rss_mb": rss if rss else float("nan"),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
WORKLOADS = {"calibrate": run_calibrate, "sta": run_sta, "serve": run_serve}


def metric_spec() -> Dict[str, List[dict]]:
    """The ``end_to_end`` and ``per_layer`` lists of BENCHMARK.json."""
    return json.loads((pipeline.ROOT / "BENCHMARK.json").read_text())


def result_metrics(values: Dict[str, float], specs: List[dict],
                   correct: bool) -> Dict[str, dict]:
    """The metrics of ``specs``, each with its unit.

    A metric the run could not measure (a failed operation left it
    without samples) is left out of a result already marked incorrect,
    rather than reported as a number nobody measured; anything else
    missing or extra is a defect of the benchmark itself and aborts
    the run.
    """
    import math

    names = [m["name"] for m in specs]
    if set(values) != set(names):
        raise SystemExit(
            f"error: measured metrics {sorted(values)} do not match "
            f"BENCHMARK.json {sorted(names)}")
    out = {}
    for m in specs:
        value = float(values[m["name"]])
        if not math.isfinite(value):
            if correct:
                raise SystemExit(f"error: {m['name']} is {value}")
            continue
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench workload runner")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (self-check only)")
    args = parser.parse_args(argv)

    pipeline.import_package()
    os.chdir(pipeline.ROOT)
    # SIGTERM unwinds like an exception, so every server is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = metric_spec()
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.seed, args.seconds, bool(args.trace), args.tiny, work)
    host = host_info()
    try:
        if run.tracer is not None:
            cost = span_cost_s()
            run.tracer.install()
            try:
                window_t0 = time.perf_counter()
                measured = WORKLOADS[args.workload](run)
                window = time.perf_counter() - window_t0
            finally:
                run.tracer.uninstall()
            # Layers this workload does not drive read 0.
            values = {m["name"]: 0.0 for m in spec["per_layer"]}
            values.update(measured)
            values["trace.spans"] = len(run.tracer.spans)
            values["trace.overhead_pct"] = (
                100.0 * cost * len(run.tracer.spans) / window)
        else:
            values = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = run.correct and run.failed == 0
    metrics = result_metrics(
        values, spec["per_layer" if run.tracer is not None else "end_to_end"],
        correct)
    result = {"correct": correct, "attempted": max(1, run.attempted),
              "failed": run.failed, "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.tracer is not None:
        run.tracer.write(OUT_DIR / f"{stem}-spans.json")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "tiny": args.tiny, "host": host, "samples": run.samples,
        "errors": run.errors, "result": result}, indent=1, default=str))
    print("host " + json.dumps(host))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
