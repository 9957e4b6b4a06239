"""Moment characterization of cell timing arcs.

This is the reproduction of the paper's characterization step (Fig. 5,
left column): "for each cell type and input pin, the moments of cell
delay are calculated based on the samples extracted from 10k MC
analysis" over a grid of operating conditions (input slew × output
load). The result — :class:`CharacterizationTable` — stores the first
four moments, the empirical sigma-level quantiles, and the mean output
slew (needed by the STA engine to propagate slews along a path).

Every (slew, load) grid point is an independent Monte-Carlo run, so the
grid fans out over :func:`repro.parallel.parallel_map`. Determinism
does not depend on worker count: each point gets its own seed derived
from ``(engine seed, arc identity, grid indices)`` via
:func:`repro.parallel.task_seed`, and workers rebuild a fresh
:class:`~repro.spice.montecarlo.MonteCarloEngine` from that seed — the
serial path runs the exact same per-point function in a loop, so
``workers=4`` is bit-identical to ``workers=1``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CharacterizationError
from repro.cache import JsonCache, content_key
from repro.cells.library import Cell, CellLibrary
from repro.moments.stats import SIGMA_LEVELS, Moments, empirical_sigma_quantiles
from repro.parallel import (
    QuarantinedTask,
    RetryPolicy,
    SharedPayloadBank,
    SharedPayloadHandle,
    parallel_map,
    resolve_workers,
    task_seed,
)
from repro.perf import PerfCounters
from repro.spice.measure import ramp_time_for_slew
from repro.spice.montecarlo import DelaySamples, MonteCarloEngine, SimulationSetup
from repro.spice.netlist import PiecewiseLinearSource, TransistorNetlist
from repro.units import FF, PS

#: Reference operating condition of the paper (Section III.B).
REFERENCE_SLEW = 10 * PS
REFERENCE_LOAD = 0.4 * FF

#: Default characterization grid (coarser than the paper's, tuned for
#: minutes-not-hours turnaround; benchmarks can densify).
DEFAULT_SLEWS = tuple(s * PS for s in (10, 40, 90, 160, 300))
DEFAULT_LOADS = tuple(c * FF for c in (0.1, 0.4, 1.2, 3.0, 6.0, 10.0))


def fanout_load(cell: Cell, tech, fanout: int = 4) -> float:
    """FO-``n`` load in farads: ``fanout`` copies of the cell's own input pin."""
    return fanout * cell.max_input_cap(tech)


def validate_grid_axes(
    slews: Sequence[float], loads: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate characterization grid axes at entry.

    Axes must be one-dimensional, non-empty, finite and strictly
    increasing — a shuffled or duplicated grid would silently produce a
    mis-ordered table whose bilinear interpolation is garbage, so the
    old silent ``sorted()`` coercion is now a hard
    :class:`~repro.errors.CharacterizationError`. Returns the axes as
    float arrays.
    """
    out = []
    for name, axis in (("slew", slews), ("load", loads)):
        arr = np.asarray(list(axis), dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise CharacterizationError(
                f"{name} grid must be a non-empty 1-D sequence, "
                f"got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise CharacterizationError(
                f"{name} grid contains non-finite values: {arr.tolist()}"
            )
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise CharacterizationError(
                f"{name} grid must be strictly increasing, "
                f"got {arr.tolist()}"
            )
        out.append(arr)
    return out[0], out[1]


@dataclass
class CharacterizationTable:
    """Moment/quantile tables of one timing arc over the (slew, load) grid.

    Attributes
    ----------
    cell_name / pin / output_rising:
        Arc identity (``output_rising=False`` is the falling-output arc).
    slews / loads:
        Grid axes in seconds / farads (ascending).
    moments:
        ``(n_slews, n_loads, 4)`` array of ``[mu, sigma, skew, kurt]``.
    quantiles:
        ``(n_slews, n_loads, 7)`` empirical quantiles at
        :data:`~repro.moments.stats.SIGMA_LEVELS`.
    out_slew:
        ``(n_slews, n_loads)`` mean 20–80 output transition time.
    n_samples:
        Monte-Carlo samples per grid point.
    provenance:
        Surrogate provenance record when the table was produced by
        active-learning GP characterization (:mod:`repro.surrogate`);
        ``None`` for dense tables. Validated by lint rules SUR001–003.
    """

    cell_name: str
    pin: str
    output_rising: bool
    slews: np.ndarray
    loads: np.ndarray
    moments: np.ndarray
    quantiles: np.ndarray
    out_slew: np.ndarray
    n_samples: int
    provenance: Optional[dict] = None

    def __post_init__(self) -> None:
        self.slews = np.asarray(self.slews, dtype=float)
        self.loads = np.asarray(self.loads, dtype=float)
        expected = (self.slews.size, self.loads.size)
        if self.moments.shape != (*expected, 4):
            raise CharacterizationError(
                f"moments shape {self.moments.shape} != {(*expected, 4)}"
            )
        if self.quantiles.shape != (*expected, len(SIGMA_LEVELS)):
            raise CharacterizationError(
                f"quantiles shape {self.quantiles.shape} != {(*expected, len(SIGMA_LEVELS))}"
            )
        if self.out_slew.shape != expected:
            raise CharacterizationError(
                f"out_slew shape {self.out_slew.shape} != {expected}"
            )

    # ------------------------------------------------------------------
    def _bilinear(self, grid: np.ndarray, slew: float, load: float) -> np.ndarray:
        """Bilinear interpolation on the grid, clamped to its bounds."""
        s = float(np.clip(slew, self.slews[0], self.slews[-1]))
        c = float(np.clip(load, self.loads[0], self.loads[-1]))
        i = int(np.clip(np.searchsorted(self.slews, s) - 1, 0, self.slews.size - 2))
        j = int(np.clip(np.searchsorted(self.loads, c) - 1, 0, self.loads.size - 2))
        fs = (s - self.slews[i]) / (self.slews[i + 1] - self.slews[i])
        fc = (c - self.loads[j]) / (self.loads[j + 1] - self.loads[j])
        v00, v01 = grid[i, j], grid[i, j + 1]
        v10, v11 = grid[i + 1, j], grid[i + 1, j + 1]
        return (
            v00 * (1 - fs) * (1 - fc)
            + v01 * (1 - fs) * fc
            + v10 * fs * (1 - fc)
            + v11 * fs * fc
        )

    def moments_at(self, slew: float, load: float) -> Moments:
        """Table-interpolated moments at an operating point.

        This is the raw LUT view of the characterization data (used for
        comparison/ablation); the paper's parametric calibration lives
        in :mod:`repro.core.calibration`.
        """
        mu, sigma, skew, kurt = self._bilinear(self.moments, slew, load)
        return Moments(mu=float(mu), sigma=float(sigma), skew=float(skew),
                       kurt=float(kurt), n=self.n_samples)

    def quantile_at(self, slew: float, load: float, level: int) -> float:
        """Table-interpolated empirical sigma-level quantile."""
        idx = SIGMA_LEVELS.index(level)
        return float(self._bilinear(self.quantiles[..., idx], slew, load))

    def out_slew_at(self, slew: float, load: float) -> float:
        """Table-interpolated mean output slew (for slew propagation)."""
        return float(self._bilinear(self.out_slew, slew, load))

    @property
    def reference_moments(self) -> Moments:
        """Moments at the paper's reference condition (10 ps, 0.4 fF)."""
        return self.moments_at(REFERENCE_SLEW, REFERENCE_LOAD)


class ArcCharacterizer:
    """Runs Monte-Carlo characterization of cell arcs.

    Parameters
    ----------
    engine:
        The Monte-Carlo transient engine (fixes technology, variation
        model, seed and fidelity knobs).
    """

    def __init__(self, engine: MonteCarloEngine):
        self.engine = engine
        self.tech = engine.tech

    # ------------------------------------------------------------------
    def arc_setup(
        self,
        cell: Cell,
        pin: str,
        input_slew: float,
        load: float,
        output_rising: bool = False,
    ) -> SimulationSetup:
        """Build the single-cell test bench for one arc.

        The cell drives an ideal load capacitor; side inputs are held at
        the arc's sensitizing values; the input pin is driven by an
        ideal ramp of the requested 20–80 slew.
        """
        arc = cell.arc(pin)
        # Inverting arcs: the input edge is the opposite of the output's.
        input_rising = (not output_rising) if arc.inverting else output_rising

        vdd = self.tech.vdd
        net = TransistorNetlist()
        net.fix("vdd", vdd)
        v_from = 0.0 if input_rising else vdd
        v_to = vdd - v_from
        # Saturated (cell-shaped) edge rather than a plain ramp: the LUTs
        # must describe cells driven by other cells, not by ideal sources.
        stimulus = PiecewiseLinearSource.saturated_edge(
            v_from, v_to, t_start=5 * PS, slew=input_slew
        )
        net.fix("in", stimulus)
        nodes = {pin: "in", cell.output: "out"}
        for side, value in arc.static.items():
            node = f"static_{side}"
            net.fix(node, vdd * value)
            nodes[side] = node
        cell.build(net, "dut", nodes, self.tech)
        net.add_capacitor("cl", "out", load)
        return SimulationSetup(
            netlist=net,
            input_node="in",
            output_node="out",
            input_rising=input_rising,
            output_rising=output_rising,
            initial_voltages={"out": 0.0 if output_rising else vdd},
            wire_variation=False,
        )

    def simulate_arc(
        self,
        cell: Cell,
        pin: str,
        input_slew: float,
        load: float,
        n_samples: int,
        output_rising: bool = False,
    ) -> DelaySamples:
        """Monte-Carlo delay/slew samples of one arc at one operating point."""
        setup = self.arc_setup(cell, pin, input_slew, load, output_rising)
        return self.engine.simulate(setup, n_samples)

    # ------------------------------------------------------------------
    def arc_payload(self, cell: Cell, pin: str) -> dict:
        """The heavy per-arc task payload shared by every grid point.

        Identical for all (slew, load) points of one arc; pooled
        fan-outs publish it once via
        :class:`~repro.parallel.SharedPayloadBank` instead of pickling
        it into every task message.
        """
        return {
            "tech": self.tech,
            "variation": self.engine.variation,
            "fidelity": self.engine.fidelity_opts(),
            "cell": cell,
            "pin": pin,
        }

    def point_tasks(
        self,
        cell: Cell,
        pin: str,
        slews: np.ndarray,
        loads: np.ndarray,
        n_samples: int,
        output_rising: bool,
        payload: Optional[SharedPayloadHandle] = None,
        points: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> List[dict]:
        """Self-contained task descriptions for (slew, load) grid points.

        Each task carries everything a worker process needs to rebuild
        an equivalent engine and simulate one grid point, plus its own
        deterministic seed — see :func:`_characterize_point`. When
        ``payload`` is given, the heavy shared fields travel as that
        shared-memory handle instead of inline objects; results are
        identical either way. ``points`` restricts the fan-out to a
        subset of grid indices (the surrogate's acquisition batches);
        a point's seed depends only on its grid indices, so a subset
        task is bit-identical to the same point in a full dense sweep.
        """
        edge = "rise" if output_rising else "fall"
        shared = self.arc_payload(cell, pin) if payload is None else None
        if points is None:
            indices: Iterable[Tuple[int, int]] = (
                (i, j) for i in range(len(slews)) for j in range(len(loads))
            )
        else:
            indices = [(int(i), int(j)) for i, j in points]
        tasks = []
        for i, j in indices:
            task = {
                "seed": task_seed(self.engine.seed, cell.name, pin, edge, i, j),
                "output_rising": output_rising,
                "slew": float(slews[i]),
                "load": float(loads[j]),
                "n_samples": n_samples,
                "arc": (cell.name, pin, edge),
                "i": i,
                "j": j,
            }
            if payload is not None:
                task["bank"] = payload
            else:
                task.update(shared)
            tasks.append(task)
        return tasks

    def characterize(
        self,
        cell: Cell,
        pin: str,
        slews: Sequence[float] = DEFAULT_SLEWS,
        loads: Sequence[float] = DEFAULT_LOADS,
        n_samples: int = 2000,
        output_rising: bool = False,
        workers: Optional[int] = None,
    ) -> CharacterizationTable:
        """Characterize one arc over the full (slew × load) grid.

        ``workers`` fans the grid points out over a process pool (see
        :func:`repro.parallel.parallel_map`); results are independent of
        worker count.
        """
        slews, loads = validate_grid_axes(slews, loads)
        bank = None
        if resolve_workers(workers) > 1:
            bank = SharedPayloadBank.publish(self.arc_payload(cell, pin))
        try:
            tasks = self.point_tasks(
                cell, pin, slews, loads, n_samples, output_rising,
                payload=bank.handle if bank is not None else None,
            )
            results = parallel_map(_characterize_point, tasks, workers=workers)
        finally:
            if bank is not None:
                bank.close()
        for res in results:
            self.engine.perf.merge(PerfCounters.from_dict(res["perf"]))
        return _assemble_table(
            cell.name, pin, output_rising, slews, loads, n_samples, results
        )


# ----------------------------------------------------------------------
# Per-point worker (module-level so it pickles for the process pool)
# ----------------------------------------------------------------------
def _characterize_point(task: Mapping[str, object]) -> dict:
    """Simulate one (slew, load) grid point in a fresh engine.

    Runs identically in-process (serial path) and in a pool worker: the
    engine is rebuilt from the task's derived seed, so the result stream
    never depends on execution order or worker count. The heavy shared
    fields arrive either inline or as a shared-memory ``bank`` handle
    (see :meth:`ArcCharacterizer.point_tasks`).
    """
    bank = task.get("bank")
    shared = bank.load() if bank is not None else task
    engine = MonteCarloEngine(
        shared["tech"], shared["variation"], seed=task["seed"], **shared["fidelity"]
    )
    cell, pin = shared["cell"], shared["pin"]
    charac = ArcCharacterizer(engine)
    res = charac.simulate_arc(
        cell,
        pin,
        task["slew"],
        task["load"],
        task["n_samples"],
        task["output_rising"],
    )
    if res.yield_fraction < 0.98:
        raise CharacterizationError(
            f"{cell.name}/{pin} at slew={task['slew'] / PS:.0f}ps "
            f"load={task['load'] / FF:.2f}fF: "
            f"only {res.yield_fraction:.1%} of samples measurable"
        )
    d = res.delay[res.valid]
    q = empirical_sigma_quantiles(d)
    arc_label = "/".join(str(part) for part in task["arc"])
    return {
        "arc": tuple(task["arc"]),
        "i": task["i"],
        "j": task["j"],
        "moments": Moments.from_samples(d, context=f"arc {arc_label}").as_array().tolist(),
        "quantiles": [q[n] for n in SIGMA_LEVELS],
        "out_slew": float(np.mean(res.output_slew[res.valid])),
        "yield_fraction": res.yield_fraction,
        "perf": engine.perf.to_dict(),
    }


def _assemble_table(
    cell_name: str,
    pin: str,
    output_rising: bool,
    slews: np.ndarray,
    loads: np.ndarray,
    n_samples: int,
    results: Iterable[Mapping[str, object]],
) -> CharacterizationTable:
    """Reassemble scattered per-point results into one arc table."""
    moments = np.empty((slews.size, loads.size, 4))
    quantiles = np.empty((slews.size, loads.size, len(SIGMA_LEVELS)))
    out_slew = np.empty((slews.size, loads.size))
    filled = np.zeros((slews.size, loads.size), dtype=bool)
    for res in results:
        i, j = res["i"], res["j"]
        moments[i, j] = res["moments"]
        quantiles[i, j] = res["quantiles"]
        out_slew[i, j] = res["out_slew"]
        filled[i, j] = True
    if not filled.all():
        missing = np.argwhere(~filled).tolist()
        raise CharacterizationError(
            f"{cell_name}/{pin}: grid points {missing} missing from results"
        )
    return CharacterizationTable(
        cell_name=cell_name,
        pin=pin,
        output_rising=output_rising,
        slews=slews,
        loads=loads,
        moments=moments,
        quantiles=quantiles,
        out_slew=out_slew,
        n_samples=n_samples,
    )


def arc_cache_payload(
    engine: MonteCarloEngine,
    cell: Cell,
    pin: str,
    output_rising: bool,
    slews: np.ndarray,
    loads: np.ndarray,
    n_samples: int,
    surrogate=None,
) -> dict:
    """Content-hash payload identifying one arc characterization.

    Any change to the technology, variation model, engine fidelity,
    seed, cell topology, grid, or sample count changes the hash — so a
    cached table can never be silently reused for different physics.
    The variation-model *identity* (class name) is included alongside
    its values, and :func:`repro.cache.content_key` further salts the
    digest with the package version, so swapping in a different model
    class or upgrading the code also invalidates stale tables.

    ``surrogate`` (a :class:`repro.surrogate.SurrogateConfig`) is salted
    in *only when enabled*, so dense-mode keys are bit-identical to
    pre-surrogate releases and a surrogate table can never shadow a
    dense one (or vice versa).
    """
    payload = {
        "tech": asdict(engine.tech),
        "variation": asdict(engine.variation),
        "variation_model": type(engine.variation).__qualname__,
        "fidelity": engine.fidelity_opts(),
        "seed": engine.seed,
        "cell": cell.name,
        "cell_type": cell.cell_type.name,
        "n_stack": cell.n_stack,
        "strength": cell.strength,
        "pin": pin,
        "edge": "rise" if output_rising else "fall",
        "slews": [float(s) for s in slews],
        "loads": [float(c) for c in loads],
        "n_samples": n_samples,
    }
    if surrogate is not None and getattr(surrogate, "enabled", False):
        payload["surrogate"] = surrogate.identity()
    return payload


@dataclass
class QuarantinedArc:
    """A timing arc excluded from a characterization run after failures.

    The structured diagnostic of graceful degradation: the arc identity,
    why it failed (last error of the exhausted retry budget), and how
    hard the executor tried. Lint rule RUN001 surfaces these; the flow
    fails the run only when their count exceeds the quarantine budget.
    """

    cell_name: str
    pin: str
    edge: str
    error_type: str
    message: str
    attempts: int = 1
    failed_points: int = 1

    @property
    def arc_key(self) -> Tuple[str, str, str]:
        return (self.cell_name, self.pin, self.edge)

    def as_dict(self) -> dict:
        return {
            "cell": self.cell_name,
            "pin": self.pin,
            "edge": self.edge,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "failed_points": self.failed_points,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "QuarantinedArc":
        return cls(
            cell_name=str(data["cell"]),
            pin=str(data["pin"]),
            edge=str(data["edge"]),
            error_type=str(data["error_type"]),
            message=str(data["message"]),
            attempts=int(data.get("attempts", 1)),  # type: ignore[arg-type]
            failed_points=int(data.get("failed_points", 1)),  # type: ignore[arg-type]
        )


@dataclass
class LibraryCharacterization:
    """Characterization tables for a set of arcs, keyed by (cell, pin, edge).

    ``quarantined`` lists arcs that failed characterization after
    retries and were excluded instead of aborting the run (empty for a
    fully healthy run). ``pack`` holds the open
    :class:`~repro.pack.PackFile` when the bundle was mmap'd from a
    ``.rpk`` (tables are then read-only zero-copy views, and
    shared-payload publication short-circuits to the file).
    """

    tables: Dict[Tuple[str, str, str], CharacterizationTable] = field(default_factory=dict)
    quarantined: List[QuarantinedArc] = field(default_factory=list)
    pack: Optional[object] = field(default=None, repr=False, compare=False)

    @staticmethod
    def _key(cell_name: str, pin: str, output_rising: bool) -> Tuple[str, str, str]:
        return (cell_name, pin, "rise" if output_rising else "fall")

    def put(self, table: CharacterizationTable) -> None:
        """Store a table (overwrites an identical arc key)."""
        self.tables[self._key(table.cell_name, table.pin, table.output_rising)] = table

    def get(self, cell_name: str, pin: str, output_rising: bool) -> CharacterizationTable:
        """Fetch a table; raises ``KeyError`` with the known arcs listed."""
        key = self._key(cell_name, pin, output_rising)
        try:
            return self.tables[key]
        except KeyError:
            known = sorted({k[0] for k in self.tables})
            raise KeyError(f"no characterization for {key}; cells present: {known}") from None

    def has(self, cell_name: str, pin: str, output_rising: bool) -> bool:
        """Whether an arc table is present."""
        return self._key(cell_name, pin, output_rising) in self.tables

    def __len__(self) -> int:
        return len(self.tables)


def characterize_library(
    characterizer: ArcCharacterizer,
    library: CellLibrary,
    cells: Optional[Iterable[str]] = None,
    first_pin_only: bool = True,
    both_edges: bool = False,
    slews: Sequence[float] = DEFAULT_SLEWS,
    loads: Sequence[float] = DEFAULT_LOADS,
    n_samples: int = 2000,
    workers: Optional[int] = None,
    cache: Optional[JsonCache] = None,
    resume: bool = True,
    max_retries: int = 0,
    task_timeout: Optional[float] = None,
    quarantine_budget: Optional[int] = 0,
    surrogate=None,
) -> LibraryCharacterization:
    """Characterize many arcs of a library in one sweep.

    Fault-tolerant and resumable: every finished arc is *checkpointed*
    into ``cache`` the moment its grid completes, so an interrupted run
    restarted with the same knobs restores those arcs bit-identically
    and only simulates the remainder. Grid points that fail after
    ``max_retries`` re-attempts quarantine their whole arc (recorded in
    ``LibraryCharacterization.quarantined``) instead of aborting the
    sweep — unless the quarantine budget is exceeded.

    Parameters
    ----------
    cells:
        Cell names to include (default: the whole library).
    first_pin_only:
        Characterize only pin ``A`` of each cell (the paper
        characterizes per input pin; pin A is representative and keeps
        the default runtime sane).
    both_edges:
        Also characterize the rising-output arc (default: falling only).
    workers:
        Process-pool width for the grid points of *all* arcs pooled
        together (better load balance than per-arc fan-out). ``None``
        reads ``REPRO_WORKERS``; 1 runs serially in-process.
    cache:
        Content-hashed on-disk cache of finished arc tables; doubles as
        the checkpoint store. Hits skip simulation entirely; the key
        covers technology, variation, fidelity, seed, cell, grid and
        sample count, so a restored checkpoint can never belong to
        different physics.
    resume:
        Consult existing checkpoints (default). ``False`` forces
        recomputation of every arc; checkpoints are still (re)written.
    max_retries / task_timeout:
        Per-grid-point retry budget and per-attempt timeout (seconds),
        see :class:`repro.parallel.RetryPolicy`. Retries reuse the
        point's own derived seed, so a retried run stays bit-identical.
    quarantine_budget:
        Maximum number of quarantined arcs tolerated before the sweep
        raises :class:`~repro.errors.CharacterizationError` (0 — the
        default — keeps the historical fail-fast behavior; ``None``
        never fails on quarantine alone).
    surrogate:
        Optional :class:`repro.surrogate.SurrogateConfig` switching
        arcs to active-learning GP characterization
        (:mod:`repro.surrogate`): a few real grid points are simulated,
        the rest are GP posterior means, and any arc whose
        cross-validation residual breaches the budget automatically
        falls back to the full dense grid. ``None`` (the default) is
        the dense path, bit-identical to previous releases.
    """
    from repro.cells.liberty import table_from_dict, table_to_dict
    from repro.errors import CharacterizationError
    from repro.lint import lint_characterization

    if surrogate is not None and not getattr(surrogate, "enabled", True):
        surrogate = None
    # Task, checkpoint and quarantine events (and the counters behind
    # them) go to the engine's counters, journaled when one is attached.
    perf = getattr(characterizer.engine, "perf", None) or PerfCounters()
    out = LibraryCharacterization()
    slews_arr, loads_arr = validate_grid_axes(slews, loads)
    names = list(cells) if cells is not None else library.names
    pending: List[Tuple[Cell, str, bool, Optional[str]]] = []
    for name in names:
        cell = library.get(name)
        pins = cell.inputs[:1] if first_pin_only else cell.inputs
        edges = (False, True) if both_edges else (False,)
        for pin in pins:
            for rising in edges:
                key = None
                if cache is not None:
                    key = content_key(
                        arc_cache_payload(
                            characterizer.engine, cell, pin, rising,
                            slews_arr, loads_arr, n_samples,
                            surrogate=surrogate,
                        )
                    )
                    if resume:
                        record = cache.get("arc", key)
                        if record is not None:
                            out.put(table_from_dict(record))
                            perf.event(
                                "checkpoint_restore", key=key,
                                arc=[cell.name, pin,
                                     "rise" if rising else "fall"],
                            )
                            continue
                pending.append((cell, pin, rising, key))

    if surrogate is not None:
        # Active-learning surrogate path: arcs run sequentially, each
        # fanning its acquisition batches over the worker pool. Tables,
        # checkpoints and quarantines land in ``out`` exactly as the
        # dense path's would; the dense machinery below then no-ops.
        _surrogate_characterize_pending(
            characterizer, pending, slews_arr, loads_arr, n_samples,
            workers, cache, surrogate, out, max_retries, task_timeout, perf,
        )
        pending = []

    # Pooled runs publish each arc's heavy payload once in shared
    # memory; serial runs keep direct object references (no pickling at
    # all, preserving the serial-fallback guarantee). Banks are owned
    # here and unlinked in the ``finally`` below, which also covers
    # quarantine and pool-crash exits.
    pooled = resolve_workers(workers) > 1
    banks: List[SharedPayloadBank] = []
    tasks: List[dict] = []
    for cell, pin, rising, _ in pending:
        handle = None
        if pooled:
            bank = SharedPayloadBank.publish(characterizer.arc_payload(cell, pin))
            if bank is not None:
                banks.append(bank)
                handle = bank.handle
        tasks.extend(
            characterizer.point_tasks(
                cell, pin, slews_arr, loads_arr, n_samples, rising, payload=handle
            )
        )
    labels = [
        "/".join(str(p) for p in t["arc"]) + f"[{t['i']},{t['j']}]" for t in tasks
    ]
    checkpoint_keys = {
        (cell.name, pin, "rise" if rising else "fall"): key
        for cell, pin, rising, key in pending
    }
    points_per_arc = slews_arr.size * loads_arr.size
    collected: Dict[Tuple[str, str, str], List[dict]] = {}
    assembled: Dict[Tuple[str, str, str], CharacterizationTable] = {}

    def _checkpoint_arc(arc_key: Tuple[str, str, str]) -> None:
        """Assemble a finished arc and persist it immediately."""
        cell_name, pin, edge = arc_key
        table = _assemble_table(
            cell_name, pin, edge == "rise", slews_arr, loads_arr, n_samples,
            collected[arc_key],
        )
        assembled[arc_key] = table
        key = checkpoint_keys.get(arc_key)
        if cache is not None and key is not None:
            # Never checkpoint a table that violates lint invariants: a
            # poisoned checkpoint would be restored forever.
            if lint_characterization(table).ok:
                cache.put("arc", key, table_to_dict(table))
                perf.event("checkpoint", key=key, arc=list(arc_key))

    def _on_point(index: int, res: dict) -> None:
        arc_key = tuple(res["arc"])
        # Per-arc wall-time / sample attribution: the point's own
        # engine already timed its "simulate" stage.
        point_wall = res.get("perf", {}).get("wall_s", {})
        perf.add_arc(
            "/".join(str(p) for p in arc_key),
            wall_s=float(point_wall.get("simulate", 0.0)),
            samples=int(res.get("n_samples", n_samples)),
        )
        bucket = collected.setdefault(arc_key, [])
        bucket.append(res)
        if len(bucket) == points_per_arc:
            _checkpoint_arc(arc_key)

    quarantined_points: List[QuarantinedTask] = []
    try:
        results = parallel_map(
            _characterize_point, tasks, workers=workers,
            policy=RetryPolicy(max_retries=max_retries, task_timeout=task_timeout),
            quarantine=quarantined_points, labels=labels,
            on_result=_on_point, perf=perf,
        )
    finally:
        for bank in banks:
            bank.close()
    for res in results:
        if res is not None:
            perf.merge(PerfCounters.from_dict(res["perf"]))
            perf.incr(points_simulated=1)

    # Map failed points onto their arcs: one structured diagnostic per
    # quarantined arc, however many of its points failed.
    bad_arcs: Dict[Tuple[str, str, str], QuarantinedArc] = {}
    for q in quarantined_points:
        arc = tuple(tasks[q.index]["arc"])
        if arc in bad_arcs:
            bad_arcs[arc].failed_points += 1
            bad_arcs[arc].attempts = max(bad_arcs[arc].attempts, q.attempts)
        else:
            bad_arcs[arc] = QuarantinedArc(
                cell_name=arc[0], pin=arc[1], edge=arc[2],
                error_type=q.error_type, message=q.message,
                attempts=q.attempts, failed_points=1,
            )
    for arc, record in bad_arcs.items():
        out.quarantined.append(record)
        perf.event("arc_quarantine", **record.as_dict())

    for cell, pin, rising, _key in pending:
        arc_key = (cell.name, pin, "rise" if rising else "fall")
        if arc_key in bad_arcs:
            continue
        if arc_key not in assembled:
            # Zero-point grids (degenerate callers) never trip the
            # completion callback; assemble whatever was collected.
            assembled[arc_key] = _assemble_table(
                cell.name, pin, rising, slews_arr, loads_arr, n_samples,
                collected.get(arc_key, ()),
            )
        out.put(assembled[arc_key])

    if quarantine_budget is not None and len(out.quarantined) > quarantine_budget:
        details = "; ".join(
            f"{'/'.join(q.arc_key)}: {q.error_type}: {q.message}"
            for q in out.quarantined[:5]
        )
        raise CharacterizationError(
            f"{len(out.quarantined)} arc(s) quarantined, exceeding the "
            f"budget of {quarantine_budget}: {details}"
        )

    # Fail fast on lint invariants (non-finite entries, impossible
    # moments, crossing quantiles) before the tables are cached further
    # downstream or consumed by the model fits.
    lint_characterization(out).raise_if_errors(
        CharacterizationError, context="characterized library"
    )
    return out


class _ArcPointFailure(Exception):
    """A surrogate acquisition point exhausted its retry budget."""

    def __init__(self, task: QuarantinedTask, n_failed: int):
        super().__init__(task.message)
        self.task = task
        self.n_failed = n_failed


def _surrogate_characterize_pending(
    characterizer: ArcCharacterizer,
    pending: List[Tuple[Cell, str, bool, Optional[str]]],
    slews_arr: np.ndarray,
    loads_arr: np.ndarray,
    n_samples: int,
    workers: Optional[int],
    cache: Optional[JsonCache],
    config,
    out: LibraryCharacterization,
    max_retries: int,
    task_timeout: Optional[float],
    perf: PerfCounters,
) -> None:
    """Characterize pending arcs with the active-learning surrogate.

    One arc at a time: the acquisition loop
    (:func:`repro.surrogate.active.run_active_learning`) decides which
    grid points get a real Monte-Carlo run; each batch fans out over the
    worker pool with the same retry policy as the dense path. A point
    that exhausts its retries quarantines the whole arc. Fallback arcs
    (cross-validation breach, tiny grid) simulate their remaining
    points — simulated points reuse their dense per-point seeds, so a
    fully-fallen-back arc is bit-identical to a dense run of it.
    Finished tables (with provenance) are checkpointed immediately,
    exactly like dense arcs.
    """
    from repro.cells.liberty import table_to_dict
    from repro.lint import lint_characterization
    from repro.surrogate.active import run_active_learning

    engine = characterizer.engine
    policy = RetryPolicy(max_retries=max_retries, task_timeout=task_timeout)
    n_grid = slews_arr.size * loads_arr.size

    # Reference-condition grid index (forced into the seed design so the
    # Eq. 2/3 calibration anchor is always real data), when on-grid.
    reference = None
    ref_i = np.where(np.isclose(slews_arr, REFERENCE_SLEW))[0]
    ref_j = np.where(np.isclose(loads_arr, REFERENCE_LOAD))[0]
    if ref_i.size and ref_j.size:
        reference = (int(ref_i[0]), int(ref_j[0]))

    for cell, pin, rising, key in pending:
        edge = "rise" if rising else "fall"
        arc_key = (cell.name, pin, edge)
        arc_label = "/".join(arc_key)
        quarantined: List[QuarantinedTask] = []

        def runner(points, _cell=cell, _pin=pin, _rising=rising,
                   _label=arc_label, _q=quarantined):
            tasks = characterizer.point_tasks(
                _cell, _pin, slews_arr, loads_arr, n_samples, _rising,
                points=points,
            )
            labels = [f"{_label}[{t['i']},{t['j']}]" for t in tasks]
            results = parallel_map(
                _characterize_point, tasks, workers=workers, policy=policy,
                quarantine=_q, labels=labels, perf=perf,
            )
            if _q:
                raise _ArcPointFailure(_q[0], len(_q))
            records = {}
            for res in results:
                point_perf = PerfCounters.from_dict(res["perf"])
                perf.merge(point_perf)
                perf.add_arc(
                    _label,
                    wall_s=point_perf.wall_s.get("simulate", 0.0),
                    samples=n_samples,
                )
                records[(res["i"], res["j"])] = res
            return records

        seed = task_seed(engine.seed, "surrogate", cell.name, pin, edge)
        try:
            res = run_active_learning(
                slews_arr, loads_arr, runner, seed=seed, config=config,
                reference=reference, n_samples=n_samples, perf=perf,
                arc=list(arc_key),
            )
            if res.fallback is not None:
                # Dense per-arc fallback: simulate whatever the loop did
                # not; already-simulated points are reused, not re-run.
                remaining = [
                    (i, j)
                    for i in range(slews_arr.size)
                    for j in range(loads_arr.size)
                    if (i, j) not in res.point_records
                ]
                records = dict(res.point_records)
                if remaining:
                    records.update(runner(remaining))
                table = _assemble_table(
                    cell.name, pin, rising, slews_arr, loads_arr,
                    n_samples, list(records.values()),
                )
                if res.provenance:
                    table.provenance = res.provenance
                perf.incr(points_simulated=n_grid)
            else:
                table = CharacterizationTable(
                    cell_name=cell.name, pin=pin, output_rising=rising,
                    slews=slews_arr, loads=loads_arr, moments=res.moments,
                    quantiles=res.quantiles, out_slew=res.out_slew,
                    n_samples=n_samples, provenance=res.provenance,
                )
                perf.incr(
                    points_simulated=len(res.simulated),
                    points_predicted=n_grid - len(res.simulated),
                )
        except _ArcPointFailure as exc:
            record = QuarantinedArc(
                cell_name=cell.name, pin=pin, edge=edge,
                error_type=exc.task.error_type, message=exc.task.message,
                attempts=exc.task.attempts, failed_points=exc.n_failed,
            )
            out.quarantined.append(record)
            perf.event("arc_quarantine", **record.as_dict())
            continue
        out.put(table)
        if cache is not None and key is not None:
            if lint_characterization(table).ok:
                cache.put("arc", key, table_to_dict(table))
                perf.event("checkpoint", key=key, arc=list(arc_key))
