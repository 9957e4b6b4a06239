"""Compiled, levelized, vectorized statistical STA (Eq. 10 at scale).

The one propagation engine of the package: the path report
(:class:`~repro.core.sta.StatisticalSTA`, one scenario), the batch
sweeps, the CLI and the server all run it. It splits the work into a
**compile** step done once per (circuit, calibration) pair and a
**query** step that serves whole scenario batches with a handful of
numpy sweeps per topological level:

* **Compile** (:func:`compile_design`):

  - levelize the circuit into topological layers; gates of one layer
    share no data dependencies, so a layer evaluates as one array op;
  - resolve every (cell, pin, edge) timing arc the design uses through
    the calibration store (including its fallbacks) and pack the fitted
    Eq. (2)/(3) coefficients into an
    :class:`~repro.core.calibration.ArcTensorBank`, so ``moments_at`` /
    ``out_slew_at`` become gathered multiply-adds over all gates of a
    level at once;
  - take the per-net parasitics from one
    :func:`~repro.core.sta.flatten_parasitics` pass: pin-loaded net
    loads, per-sink Elmore delays, per-(net, sink) wire variabilities
    ``X_w``, and the per-net endpoint Elmore used for
    critical-endpoint selection.

  Given a :class:`~repro.cache.JsonCache`, the artifact is stored in
  its directory as one digest-verified ``.rpk`` pack
  (:func:`~repro.pack.pack_compiled_design`), keyed on a hash of that
  pass, the gate table and the calibration digest. Re-analyzing a
  design maps the pack back in (:func:`~repro.pack.load_compiled_design`)
  with every tensor a read-only zero-copy view, instead of rebuilding it.

* **Query** (:meth:`CompiledSTA.analyze_batch`): any number of
  :class:`Scenario` objects evaluate in one vectorized pass — state
  arrays are ``(n_scenarios, n_nets)``, and each level performs one
  gather → arc-tensor contraction → per-gate argmax → scatter cycle.
  Per-scenario critical paths are then traced back through the recorded
  winning pins and priced together, in array passes over (scenario ×
  stage): one arc-bank moment evaluation and one Table I sweep per
  sigma level for every stage of the batch. ``tests/core/sta_oracle.py``
  re-derives every result with a dict-based scalar walker (scalar
  Eq. (2)/(3) and Table I, which share their formulas with the array
  code); ``tests/core/test_sta_compiled.py`` holds the engine to it
  with exact equality.

:mod:`repro.perf` counters record the work: ``sta_compiles``,
``sta_scenarios``, ``sta_levels``, ``sta_arc_evals`` plus the
``sta_compile`` / ``sta_query`` wall-time stages.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache import JsonCache, content_key
from repro.core.calibration import ArcTensorBank
from repro.core.sta import (
    FlatParasitics,
    PathStage,
    PathTiming,
    SinkKey,
    STAResult,
    TimingModels,
    WIRE_SLEW_FACTOR,
    check_stage_correlation,
    flatten_parasitics,
)
from repro.errors import TimingError
from repro.moments.stats import SIGMA_LEVELS, Moments
from repro.netlist.circuit import Circuit, PRIMARY_OUTPUT
from repro.perf import PerfCounters
from repro.units import PS

#: Cache artifact kind for compiled designs.
COMPILE_CACHE_KIND = "sta_compiled"

#: Form of :func:`design_cache_key`'s hash input. Bumping it re-keys
#: every compile artifact and makes every recorded pack key stale.
DESIGN_KEY_FORM = "flat-parasitics/1"


@dataclass(frozen=True)
class Scenario:
    """One STA query: operating point + reporting knobs.

    Attributes
    ----------
    input_slew:
        Slew presented at every primary input (seconds).
    launch_rising:
        Edge polarity launched at the primary inputs.
    levels:
        Sigma levels to evaluate along the critical path.
    stage_correlation:
        Stage-to-stage delay correlation for the correlation-aware path
        quantiles (None = the fitted ``models.stage_correlation``).
    """

    input_slew: float = 20 * PS
    launch_rising: bool = True
    levels: Tuple[int, ...] = SIGMA_LEVELS
    stage_correlation: Optional[float] = None


@dataclass
class BatchSTAResult(STAResult):
    """A path report (:class:`~repro.core.sta.STAResult`) plus batch metadata.

    ``runtime_s`` is the batch query wall time amortized over its
    scenarios. ``correlated_quantiles`` evaluates
    :meth:`~repro.core.sta.PathTiming.total_correlated` at the
    scenario's stage correlation.
    """

    scenario: Scenario = field(default_factory=Scenario)
    correlated_quantiles: Dict[int, float] = field(default_factory=dict)


class ArrivalView(Mapping):
    """Read-only ``net → mean arrival`` over one row of a batch's arrivals.

    Iterates in the design's net order and returns Python floats, so it
    compares equal to the dict it stands for; no per-scenario dict is
    built. The row it reads is a view of the batch array, which
    :meth:`CompiledSTA.analyze_batch` makes non-writeable.
    """

    __slots__ = ("_names", "_index", "_row")

    def __init__(self, names: List[str], index: Dict[str, int], row: np.ndarray):
        self._names = names
        self._index = index
        self._row = row

    def __getitem__(self, net: str) -> float:
        return float(self._row[self._index[net]])

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


@dataclass
class CompiledLevel:
    """One topological layer, padded to its widest gate.

    All per-pin arrays are ``(n_gates, max_pins)``; padding slots have
    ``valid = False`` and harmless index 0 elsewhere.

    Attributes
    ----------
    gate_names:
        Instance names, in deterministic topological order.
    out_net:
        ``(G,)`` output-net index of each gate.
    load:
        ``(G,)`` total output load (annotated wire + receiver pins).
    valid:
        ``(G, P)`` mask of real input pins.
    src_net:
        ``(G, P)`` input-net index per pin.
    elm_in:
        ``(G, P)`` Elmore delay from the input net's root to the pin tap.
    inverting:
        ``(G, P)`` whether the pin's arc inverts the edge.
    arc_rise / arc_fall:
        ``(G, P)`` arc-tensor rows used when the *output* edge is
        rising / falling.
    """

    gate_names: List[str]
    out_net: np.ndarray
    load: np.ndarray
    valid: np.ndarray
    src_net: np.ndarray
    elm_in: np.ndarray
    inverting: np.ndarray
    arc_rise: np.ndarray
    arc_fall: np.ndarray

    @property
    def n_arcs(self) -> int:
        """Number of real (gate, pin) arcs in the level."""
        return int(self.valid.sum())


#: Separators of the packed sink-table key blob. Neither occurs in the
#: netlist subset's identifiers; the encoder falls back to pair lists
#: if one ever does.
_KEY_FIELD_SEP = "\x1f"
_KEY_ENTRY_SEP = "\n"


def _pack_sink_table(table: Dict[SinkKey, float]):
    """Sink table as two ndarray segments (keys blob + values).

    The pair-list form dominates the pack manifest's JSON parse time
    on large circuits; as segments, the keys are one utf-8 blob and
    the values raw float64 — both mmap straight in.
    """
    items = sorted(table.items())
    if any(
        _KEY_FIELD_SEP in part or _KEY_ENTRY_SEP in part
        for key, _ in items
        for part in key
    ):  # pragma: no cover - identifiers never contain separators
        return [[list(k), v] for k, v in items]
    blob = _KEY_ENTRY_SEP.join(_KEY_FIELD_SEP.join(k) for k, _ in items)
    return {
        "keys": np.frombuffer(blob.encode("utf-8"), dtype=np.uint8).copy(),
        "values": np.asarray([v for _, v in items], dtype=np.float64),
    }


def _sink_table_from(data) -> Dict[SinkKey, float]:
    """Inverse of :func:`_pack_sink_table` (blob or separator fallback)."""
    if isinstance(data, dict):
        raw = np.asarray(data["keys"], dtype=np.uint8).tobytes()
        values = np.asarray(data["values"], dtype=float)
        if not raw:
            return {}
        # One C-level split into a flat field list, re-grouped into
        # key triples by zipping one iterator three ways — measurably
        # faster than a per-entry str.split on large designs.
        parts = iter(
            raw.decode("utf-8")
            .replace(_KEY_ENTRY_SEP, _KEY_FIELD_SEP)
            .split(_KEY_FIELD_SEP)
        )
        return dict(zip(zip(parts, parts, parts), values.tolist()))
    return {tuple(k): float(v) for k, v in data}


def _sink_xw_from(data, elmore_data, elmore: Dict[SinkKey, float]):
    """Decode ``sink_xw``, reusing ``sink_elmore``'s decoded keys.

    Both tables are filled together at compile time, so their packed
    key blobs are byte-identical; skipping the second blob decode
    roughly halves the sink-table share of a pack load.
    """
    if (
        isinstance(data, dict)
        and isinstance(elmore_data, dict)
        and np.array_equal(data["keys"], elmore_data["keys"])
    ):
        values = np.asarray(data["values"], dtype=float)
        return dict(zip(elmore.keys(), values.tolist()))
    return _sink_table_from(data)


def _pack_str_list(names: List[str]):
    """String list as one utf-8 blob segment (manifest-JSON relief)."""
    if not names or any(_KEY_ENTRY_SEP in n for n in names):
        return list(names)
    blob = _KEY_ENTRY_SEP.join(names)
    return {"blob": np.frombuffer(blob.encode("utf-8"), dtype=np.uint8).copy()}


def _str_list_from(data) -> List[str]:
    """Inverse of :func:`_pack_str_list` (blob or plain-list fallback)."""
    if isinstance(data, dict):
        raw = np.asarray(data["blob"], dtype=np.uint8).tobytes()
        return raw.decode("utf-8").split(_KEY_ENTRY_SEP)
    return list(data)


#: Per-level array fields and their dtypes, in serialization order.
#: ``(G,)`` fields are concatenated gate-major; ``(G, P)`` fields are
#: raveled then concatenated, so a contiguous slice + reshape
#: reconstructs each level as a zero-copy view.
_LEVEL_G_FIELDS = (("out_net", np.int64), ("load", np.float64))
_LEVEL_GP_FIELDS = (
    ("valid", np.bool_),
    ("src_net", np.int64),
    ("elm_in", np.float64),
    ("inverting", np.bool_),
    ("arc_rise", np.int64),
    ("arc_fall", np.int64),
)


def _pack_levels(levels: List["CompiledLevel"]) -> dict:
    """All levels as one segment per field (manifest-JSON relief).

    A per-level-per-field segment layout costs hundreds of manifest
    records on deep circuits; parsing those dominates pack-open time.
    Concatenating each field across levels keeps the manifest O(1) in
    depth while the loader slices zero-copy views back out.
    """
    shapes = np.asarray(
        [[len(lv.gate_names), lv.valid.shape[1]] for lv in levels],
        dtype=np.int64,
    ).reshape(len(levels), 2)
    packed: dict = {
        "gate_names": _pack_str_list(
            [name for lv in levels for name in lv.gate_names]
        ),
        "shapes": shapes,
    }
    for field_name, dtype in _LEVEL_G_FIELDS:
        parts = [getattr(lv, field_name) for lv in levels]
        packed[field_name] = (
            np.concatenate(parts) if parts else np.zeros(0, dtype)
        ).astype(dtype, copy=False)
    for field_name, dtype in _LEVEL_GP_FIELDS:
        parts = [getattr(lv, field_name).ravel() for lv in levels]
        packed[field_name] = (
            np.concatenate(parts) if parts else np.zeros(0, dtype)
        ).astype(dtype, copy=False)
    return packed


def _levels_from(data) -> List["CompiledLevel"]:
    """Inverse of :func:`_pack_levels`."""
    shapes = np.asarray(data["shapes"], dtype=np.int64).reshape(-1, 2)
    names = _str_list_from(data["gate_names"])
    flat_g = {
        f: np.asarray(data[f], dtype=dt) for f, dt in _LEVEL_G_FIELDS
    }
    flat_gp = {
        f: np.asarray(data[f], dtype=dt) for f, dt in _LEVEL_GP_FIELDS
    }
    levels: List[CompiledLevel] = []
    g0 = gp0 = n0 = 0
    for n_gates, max_pins in shapes.tolist():
        fields = {
            f: flat_g[f][g0 : g0 + n_gates] for f, _ in _LEVEL_G_FIELDS
        }
        fields.update(
            {
                f: flat_gp[f][gp0 : gp0 + n_gates * max_pins].reshape(
                    n_gates, max_pins
                )
                for f, _ in _LEVEL_GP_FIELDS
            }
        )
        levels.append(
            CompiledLevel(gate_names=names[n0 : n0 + n_gates], **fields)
        )
        n0 += n_gates
        g0 += n_gates
        gp0 += n_gates * max_pins
    return levels


@dataclass
class CompiledDesign:
    """The query-ready artifact of :func:`compile_design`.

    Attributes
    ----------
    circuit_name:
        Name of the compiled circuit (sanity check at bind time).
    net_names:
        Net order shared by every per-net array (= circuit insertion
        order, so the endpoint argmax picks the first latest net in
        circuit order).
    input_nets:
        ``(I,)`` indices of primary-input nets.
    net_load / end_elmore:
        ``(N,)`` per-net total load and root→endpoint-tap Elmore delay.
    levels:
        Topological layers (see :class:`CompiledLevel`).
    arcs:
        Packed arc coefficient tensors.
    sink_elmore / sink_xw:
        Per-(net, sink) Elmore delay and wire variability ``X_w``
        (flattened once at compile; path pricing is dict lookups).
    calibration_digest:
        :meth:`CalibratedCellLibrary.content_digest` of the calibration
        the tensors were packed from — the drift sentinel checked by
        the ``NSM003`` lint rule and the cache loader.
    pack:
        The open :class:`~repro.pack.PackFile` when this design's
        tensors are read-only zero-copy views into a mmap'd ``.rpk``
        (set by :func:`repro.pack.load_compiled_design`, which is also
        how a :func:`compile_design` cache hit loads); ``None`` for
        heap-resident designs.
        mmap-backed designs cost only their python side tables in
        private memory — the tensor bytes are shared page cache.
    cache_key:
        The :func:`design_cache_key` :func:`compile_design` stored or
        found this design under; ``None`` when it ran without a cache.
    """

    circuit_name: str
    net_names: List[str]
    input_nets: np.ndarray
    net_load: np.ndarray
    end_elmore: np.ndarray
    levels: List[CompiledLevel]
    arcs: ArcTensorBank
    sink_elmore: Dict[SinkKey, float]
    sink_xw: Dict[SinkKey, float]
    calibration_digest: str
    pack: Optional[object] = field(default=None, repr=False, compare=False)
    cache_key: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def n_nets(self) -> int:
        """Number of nets."""
        return len(self.net_names)

    @property
    def n_levels(self) -> int:
        """Number of topological layers."""
        return len(self.levels)

    @property
    def n_gates(self) -> int:
        """Number of gate instances."""
        return sum(len(level.gate_names) for level in self.levels)

    @property
    def n_arcs(self) -> int:
        """Number of (gate, pin) arcs evaluated per scenario."""
        return sum(level.n_arcs for level in self.levels)

    def to_dict(self) -> dict:
        """The pack document: a dict tree with ndarray leaves.

        :mod:`repro.pack` stores the leaves as raw binary segments;
        :func:`repro.pack.delist_document` turns them into nested
        lists for portable JSON (``repro unpack``).
        """
        return {
            "circuit_name": self.circuit_name,
            "net_names": _pack_str_list(self.net_names),
            "input_nets": self.input_nets,
            "net_load": self.net_load,
            "end_elmore": self.end_elmore,
            "levels": _pack_levels(self.levels),
            "arc_table": self.arcs.to_dict(),
            "sink_elmore": _pack_sink_table(self.sink_elmore),
            "sink_xw": _pack_sink_table(self.sink_xw),
            "calibration_digest": self.calibration_digest,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CompiledDesign":
        """Inverse of :meth:`to_dict`, with ndarray or nested-list leaves."""
        sink_elmore = _sink_table_from(data["sink_elmore"])
        sink_xw = _sink_xw_from(data["sink_xw"], data["sink_elmore"], sink_elmore)
        return cls(
            circuit_name=data["circuit_name"],
            net_names=_str_list_from(data["net_names"]),
            input_nets=np.asarray(data["input_nets"], dtype=np.int64),
            net_load=np.asarray(data["net_load"], dtype=float),
            end_elmore=np.asarray(data["end_elmore"], dtype=float),
            levels=_levels_from(data["levels"]),
            arcs=ArcTensorBank.from_dict(data["arc_table"]),
            sink_elmore=sink_elmore,
            sink_xw=sink_xw,
            calibration_digest=data["calibration_digest"],
        )


# ----------------------------------------------------------------------
# Compile
# ----------------------------------------------------------------------
def design_cache_key(
    circuit: Circuit, models: TimingModels, flat: Optional[FlatParasitics] = None
) -> str:
    """Content key of a compile artifact: circuit + every model input.

    The key is a sha256 over what the artifact is built from: the
    arrays of the flat parasitic pass (``flat``, computed when not
    given), the net order, the primary inputs and outputs, the gate
    table with each gate's pins in order, the calibration digest and
    the wire model. That digest is then salted with
    :data:`DESIGN_KEY_FORM` and the package version by
    :func:`~repro.cache.content_key`.
    """
    if flat is None:
        flat = flatten_parasitics(circuit, models)
    header = [
        circuit.name,
        flat.net_names,
        circuit.inputs,
        circuit.outputs,
        [
            [g.name, g.cell_name, list(g.pins.items()), g.output_net]
            for g in circuit.gates.values()
        ],
        flat.sink_keys,
        models.calibrated.content_digest(),
        models.wire.to_dict(),
    ]
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode())
    for values in (flat.net_load, flat.sink_elmore, flat.sink_xw):
        digest.update(values.astype("<f8", copy=False).tobytes())
    payload = {"form": DESIGN_KEY_FORM, "sha256": digest.hexdigest()}
    return content_key(payload, length=32)


def compile_design(
    circuit: Circuit,
    models: TimingModels,
    cache: Optional[JsonCache] = None,
    perf: Optional[PerfCounters] = None,
    flat: Optional[FlatParasitics] = None,
) -> CompiledDesign:
    """Levelize + pack a circuit into a :class:`CompiledDesign`.

    The circuit is linted first: structural errors raise
    :class:`~repro.errors.TimingError` before anything is built.
    ``flat`` is the circuit's :func:`~repro.core.sta.flatten_parasitics`
    pass when the caller already ran it (computed here otherwise).

    With ``cache`` given, the artifact is the pack
    ``<cache.directory>/sta_compiled_<key>.rpk`` keyed on
    :func:`design_cache_key` (kept as ``design.cache_key``). A miss
    builds the design and writes the pack
    (:func:`~repro.pack.pack_compiled_design`); a hit maps it back with
    every digest verified (:func:`~repro.pack.load_compiled_design`),
    so its tensors are read-only zero-copy views and ``design.pack``
    holds the mapping. A pack that fails to open is unlinked, counted
    as ``cache_corrupt`` and rebuilt. A loaded design is run through
    the ``NSM003`` drift lint (:func:`repro.lint.lint_compiled_design`)
    and rebuilt — never served — when its packed tensors disagree with
    the current calibration.
    """
    from repro.lint import lint_circuit, lint_compiled_design
    from repro.pack import load_compiled_design, pack_compiled_design

    lint_circuit(circuit, library=models.library).raise_if_errors(
        TimingError, context=f"circuit {circuit.name}"
    )
    perf = perf if perf is not None else PerfCounters()
    digest = models.calibrated.content_digest()
    if flat is None:
        flat = flatten_parasitics(circuit, models)
    key = None
    if cache is not None:
        key = design_cache_key(circuit, models, flat)
        candidate = cache.get_pack(
            COMPILE_CACHE_KIND,
            key,
            lambda path: load_compiled_design(
                path, verify=True, expected_key=key, perf=perf
            ),
        )
        if candidate is not None:
            candidate.cache_key = key
            if not lint_compiled_design(candidate, models.calibrated).errors:
                return candidate

    design = _build_design(circuit, models, digest, flat)
    design.cache_key = key
    perf.incr(sta_compiles=1)
    if cache is not None and key is not None:
        cache.put_pack(
            COMPILE_CACHE_KIND,
            key,
            lambda path: pack_compiled_design(
                design, path, design_key=key, perf=perf
            ),
        )
    return design


def _build_design(
    circuit: Circuit, models: TimingModels, digest: str, flat: FlatParasitics
) -> CompiledDesign:
    net_names = flat.net_names
    net_index = {name: i for i, name in enumerate(net_names)}
    net_load = flat.net_load
    sink_elmore = flat.table(flat.sink_elmore)

    # Arc tensor bank over every (cell, pin, edge) the design can query.
    keys: List[Tuple[str, str, bool]] = []
    for gate in circuit.gates.values():
        for pin in gate.pins:
            keys.append((gate.cell_name, pin, True))
            keys.append((gate.cell_name, pin, False))
    levels: List[CompiledLevel] = []
    arcs = None
    if keys:
        arcs = ArcTensorBank.pack(models.calibrated, keys)

        # Levelize: level(gate) = 1 + max(level of driving gates).
        order = circuit.topological_gates()
        gate_level: Dict[str, int] = {}
        groups: Dict[int, List] = {}
        for gate in order:
            lvl = 0
            for net_name in gate.pins.values():
                net = circuit.nets[net_name]
                if not net.is_primary_input:
                    lvl = max(lvl, gate_level[net.driver[0]])
            lvl += 1
            gate_level[gate.name] = lvl
            groups.setdefault(lvl, []).append(gate)

        for lvl in sorted(groups):
            gates = groups[lvl]
            max_pins = max(len(g.pins) for g in gates)
            shape = (len(gates), max_pins)
            valid = np.zeros(shape, dtype=bool)
            src_net = np.zeros(shape, dtype=np.int64)
            elm_in = np.zeros(shape)
            inverting = np.zeros(shape, dtype=bool)
            arc_rise = np.zeros(shape, dtype=np.int64)
            arc_fall = np.zeros(shape, dtype=np.int64)
            out_net = np.zeros(len(gates), dtype=np.int64)
            load = np.zeros(len(gates))
            for g, gate in enumerate(gates):
                cell = models.library.get(gate.cell_name)
                out_net[g] = net_index[gate.output_net]
                load[g] = net_load[out_net[g]]
                for p, (pin, net_name) in enumerate(gate.pins.items()):
                    valid[g, p] = True
                    src_net[g, p] = net_index[net_name]
                    elm_in[g, p] = sink_elmore[(net_name, gate.name, pin)]
                    inverting[g, p] = cell.arc(pin).inverting
                    arc_rise[g, p] = arcs.index[(gate.cell_name, pin, True)]
                    arc_fall[g, p] = arcs.index[(gate.cell_name, pin, False)]
            levels.append(
                CompiledLevel(
                    gate_names=[g.name for g in gates],
                    out_net=out_net,
                    load=load,
                    valid=valid,
                    src_net=src_net,
                    elm_in=elm_in,
                    inverting=inverting,
                    arc_rise=arc_rise,
                    arc_fall=arc_fall,
                )
            )
    if arcs is None:
        raise TimingError(
            f"circuit {circuit.name!r} has no gates; nothing to compile"
        )
    return CompiledDesign(
        circuit_name=circuit.name,
        net_names=net_names,
        input_nets=np.asarray(
            [net_index[n] for n in circuit.inputs], dtype=np.int64
        ),
        net_load=net_load,
        end_elmore=flat.end_elmore,
        levels=levels,
        arcs=arcs,
        sink_elmore=sink_elmore,
        sink_xw=flat.table(flat.sink_xw),
        calibration_digest=digest,
    )


# ----------------------------------------------------------------------
# Query
# ----------------------------------------------------------------------
def _correlated_totals(
    terms: np.ndarray, zero: Optional[int], rho: np.ndarray
) -> np.ndarray:
    """``(level, scenario)`` correlated Eq. (10) quantiles of priced paths.

    ``terms`` is ``(level, scenario, position)``: each stage's cell plus
    wire quantile in path order, 0.0 past the path's end. ``zero`` is
    the row of level 0 (``None`` when no scenario reports it, so every
    base reads 0.0) and ``rho`` the per-scenario stage correlation. One
    left-to-right pass over position keeps the float order of
    :meth:`PathTiming.total` and :meth:`PathTiming.total_correlated`.
    """
    n_levels, n_scenarios, n_pos = terms.shape
    zero_terms = terms[zero] if zero is not None else np.zeros((n_scenarios, n_pos))
    base = np.zeros(n_scenarios)
    linear = np.zeros((n_levels, n_scenarios))
    quad = np.zeros((n_levels, n_scenarios))
    for k in range(n_pos):
        base += zero_terms[:, k]
        dev = terms[:, :, k] - zero_terms[:, k]
        linear += dev
        quad += dev * dev
    sign = np.where(linear >= 0, 1.0, -1.0)
    # Level 0 deviates from itself by exactly 0.0, so its row is ``base``.
    return base + sign * np.sqrt(rho * linear * linear + (1.0 - rho) * quad)


class CompiledSTA:
    """Batch scenario queries over a compiled design.

    Parameters
    ----------
    circuit / models:
        The design and fitted models (must match the compile artifact).
    cache:
        Optional :class:`~repro.cache.JsonCache`; the compile artifact
        is stored/loaded there as a ``.rpk`` pack keyed on circuit +
        calibration content (see :func:`compile_design`).
    perf:
        Optional shared :class:`~repro.perf.PerfCounters`; compile and
        query work is recorded under ``sta_*`` counters and the
        ``sta_compile`` / ``sta_query`` wall stages.
    design:
        Pre-built :class:`CompiledDesign` to bind instead of compiling.
    """

    def __init__(
        self,
        circuit: Circuit,
        models: TimingModels,
        cache: Optional[JsonCache] = None,
        perf: Optional[PerfCounters] = None,
        design: Optional[CompiledDesign] = None,
    ):
        self.circuit = circuit
        self.models = models
        self.perf = perf if perf is not None else PerfCounters()
        if design is None:
            with self.perf.timer("sta_compile"):
                design = compile_design(circuit, models, cache=cache, perf=self.perf)
        if design.circuit_name != circuit.name:
            raise TimingError(
                f"compiled design {design.circuit_name!r} does not match "
                f"circuit {circuit.name!r}"
            )
        self.design = design
        self._net_index = {name: i for i, name in enumerate(design.net_names)}
        # Sample count of each bank row's reference moments (``Moments.n``
        # of a priced stage); the bank itself carries coefficients only.
        self._ref_n = [0] * design.arcs.n_arcs
        for key, row in design.arcs.index.items():
            self._ref_n[row] = models.calibrated.get(*key).ref.n

    # ------------------------------------------------------------------
    def analyze(
        self,
        input_slew: float = 20 * PS,
        launch_rising: bool = True,
        levels: Iterable[int] = SIGMA_LEVELS,
    ) -> BatchSTAResult:
        """Single-scenario convenience wrapper over :meth:`analyze_batch`."""
        scenario = Scenario(
            input_slew=input_slew,
            launch_rising=launch_rising,
            levels=tuple(levels),
        )
        return self.analyze_batch([scenario])[0]

    def analyze_batch(self, scenarios: Sequence[Scenario]) -> List[BatchSTAResult]:
        """Evaluate all scenarios in one vectorized pass.

        Propagation state is ``(n_scenarios, n_nets)``; every topological
        level costs one gather → arc-tensor contraction → per-gate argmax
        → scatter cycle regardless of the batch width. Per-scenario
        critical paths are then traced and priced together, in array
        passes over every stage of every path (:meth:`_price_paths`).
        Each result's ``arrival`` is a read-only :class:`ArrivalView`
        over its row of the batch's arrival array.

        Safe to call concurrently on a shared instance: all propagation
        state is per-call locals, and perf-counter updates go through
        :meth:`~repro.perf.PerfCounters.incr` under the counters' lock.
        """
        if not scenarios:
            return []
        design = self.design
        with self.perf.timer("sta_query"):
            t0 = time.perf_counter()
            arrival, slew, edge, winner = self._propagate(scenarios)
            # Critical endpoint per scenario: first maximum in net order.
            end_idx = np.argmax(arrival + design.end_elmore[None, :], axis=1)
            chains = [
                self._trace_path(design.net_names[end], winner[s])
                for s, end in enumerate(end_idx.tolist())
            ]
            paths, correlated = self._price_paths(scenarios, chains, slew, edge)
            arrival.flags.writeable = False
            results = [
                BatchSTAResult(
                    circuit_name=design.circuit_name,
                    arrival=ArrivalView(design.net_names, self._net_index, arrival[s]),
                    critical_path=paths[s],
                    runtime_s=0.0,
                    scenario=scenario,
                    correlated_quantiles=correlated[s],
                )
                for s, scenario in enumerate(scenarios)
            ]
            wall = time.perf_counter() - t0
            self.perf.incr(sta_scenarios=len(scenarios))
        for result in results:
            result.runtime_s = wall / len(scenarios)
        return results

    # ------------------------------------------------------------------
    def _propagate(
        self, scenarios: Sequence[Scenario]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        design = self.design
        n_s, n_n = len(scenarios), design.n_nets
        arrival = np.zeros((n_s, n_n))
        slew = np.zeros((n_s, n_n))
        edge = np.zeros((n_s, n_n), dtype=bool)
        winner = np.zeros((n_s, n_n), dtype=np.int32)

        inputs = design.input_nets
        slew[:, inputs] = np.asarray([sc.input_slew for sc in scenarios])[:, None]
        edge[:, inputs] = np.asarray(
            [sc.launch_rising for sc in scenarios], dtype=bool
        )[:, None]

        arcs = design.arcs
        arc_evals = 0
        for level in design.levels:
            src = level.src_net
            at_pin = arrival[:, src] + level.elm_in
            slew_pin = np.hypot(slew[:, src], WIRE_SLEW_FACTOR * level.elm_in)
            out_edge = edge[:, src] ^ level.inverting
            rows = np.where(out_edge, level.arc_rise, level.arc_fall)
            load = level.load[None, :, None]
            mu = arcs.mu_at(rows, slew_pin, load)
            at_out = np.where(level.valid, at_pin + mu, -np.inf)

            win = np.argmax(at_out, axis=2)
            take = win[:, :, None]
            best_at = np.take_along_axis(at_out, take, axis=2)[:, :, 0]
            best_slew_pin = np.take_along_axis(slew_pin, take, axis=2)[:, :, 0]
            best_rows = np.take_along_axis(rows, take, axis=2)[:, :, 0]
            best_edge = np.take_along_axis(out_edge, take, axis=2)[:, :, 0]
            out_slew = arcs.out_slew_at(best_rows, best_slew_pin, level.load[None, :])

            arrival[:, level.out_net] = best_at
            slew[:, level.out_net] = out_slew
            edge[:, level.out_net] = best_edge
            winner[:, level.out_net] = win.astype(np.int32)

            arc_evals += n_s * level.n_arcs
        # One locked update per batch: bare `+=` on shared counters races
        # under concurrent queries against one instance.
        self.perf.incr(sta_levels=len(design.levels), sta_arc_evals=arc_evals)
        return arrival, slew, edge, winner

    def _trace_path(
        self, end_net: str, winner: np.ndarray
    ) -> List[Tuple[str, str, str]]:
        """Walk winning pins back from the endpoint: (gate, pin, out net)."""
        chain: List[Tuple[str, str, str]] = []
        net_name = end_net
        while True:
            net = self.circuit.nets[net_name]
            if net.is_primary_input:
                break
            gate = self.circuit.gates[net.driver[0]]
            pin = list(gate.pins)[int(winner[self._net_index[net_name]])]
            chain.append((gate.name, pin, net_name))
            net_name = gate.pins[pin]
        chain.reverse()
        return chain

    def _price_paths(
        self,
        scenarios: Sequence[Scenario],
        chains: List[List[Tuple[str, str, str]]],
        slew: np.ndarray,
        edge: np.ndarray,
    ) -> Tuple[List[PathTiming], List[Dict[int, float]]]:
        """Price every traced path (Eq. 10) in array passes over all stages.

        The batch's stages are flattened in path order: stage ``m`` of
        scenario ``scn[m]`` sits at path position ``pos[m]``, where 0 is
        the launch stage (the primary-input wire into the first gate)
        and the cell stages follow. One :meth:`ArcTensorBank.moments_at`
        call prices every cell stage, then one Table I sweep per sigma
        level of the batch. The Eq. (10) sums run as one pass over path
        position on ``(level, scenario, position)`` terms that read 0.0
        past a path's end and at a level its scenario does not report:
        the float order and the ``.get(level, 0.0)`` default of
        :meth:`PathTiming.total` and :meth:`PathTiming.total_correlated`.
        """
        design = self.design
        gates = self.circuit.gates
        net_index = self._net_index
        levels_of = [tuple(sc.levels) for sc in scenarios]
        rhos = [
            self.models.stage_correlation
            if sc.stage_correlation is None
            else sc.stage_correlation
            for sc in scenarios
        ]
        for levels, rho in zip(levels_of, rhos):
            if levels:
                check_stage_correlation(rho)

        scn: List[int] = []
        pos: List[int] = []
        nets: List[str] = []  # the net each stage drives
        sinks: List[Tuple[str, str]] = []
        info: List[Tuple[str, str, str]] = []  # (gate, cell, input pin)
        cell_arc: List[Tuple[str, str]] = []  # (cell, input pin)
        cell_in: List[int] = []
        cell_elm: List[float] = []
        for s, chain in enumerate(chains):
            if not chain:
                continue
            first_gate, first_pin, _ = chain[0]
            scn.append(s)
            pos.append(0)
            nets.append(gates[first_gate].pins[first_pin])
            sinks.append((first_gate, first_pin))
            info.append(("", "", ""))
            for k, (gate_name, pin, out_net) in enumerate(chain, start=1):
                gate = gates[gate_name]
                in_net = gate.pins[pin]
                scn.append(s)
                pos.append(k)
                nets.append(out_net)
                sinks.append(chain[k][:2] if k < len(chain) else PRIMARY_OUTPUT)
                info.append((gate_name, gate.cell_name, pin))
                cell_arc.append((gate.cell_name, pin))
                cell_in.append(net_index[in_net])
                cell_elm.append(design.sink_elmore[(in_net, gate_name, pin)])

        scn_a = np.asarray(scn, dtype=np.intp)
        pos_a = np.asarray(pos, dtype=np.intp)
        net_a = np.asarray([net_index[n] for n in nets], dtype=np.intp)
        is_cell = pos_a > 0
        cell_scn, cell_out = scn_a[is_cell], net_a[is_cell]
        rising = edge[cell_scn, cell_out].tolist()
        rows = np.asarray(
            [design.arcs.index[(*arc, r)] for arc, r in zip(cell_arc, rising)],
            dtype=np.intp,
        )
        in_slew = np.hypot(
            slew[cell_scn, np.asarray(cell_in, dtype=np.intp)],
            WIRE_SLEW_FACTOR * np.asarray(cell_elm, dtype=float),
        )
        load = design.net_load[net_a]
        moments = design.arcs.moments_at(rows, in_slew, load[is_cell])
        wire_keys = [(net, *sink) for net, sink in zip(nets, sinks)]
        elm = np.asarray([design.sink_elmore[k] for k in wire_keys], dtype=float)
        xw = np.asarray([design.sink_xw[k] for k in wire_keys], dtype=float)

        # Per-level stage quantiles; the launch stage's cell term is 0.0.
        union = list(dict.fromkeys(n for levels in levels_of for n in levels))
        cell_q: Dict[int, np.ndarray] = {}
        wire_q: Dict[int, np.ndarray] = {}
        n_pos = max((len(chain) + 1 for chain in chains if chain), default=0)
        terms = np.zeros((len(union), len(scenarios), n_pos))
        for i, n in enumerate(union):
            cell_q[n] = np.zeros(len(scn))
            cell_q[n][is_cell] = self.models.nsigma.quantile_array(*moments, n)
            wire_q[n] = (1.0 + n * xw) * elm
            reported = np.asarray([n in levels for levels in levels_of])
            terms[i, scn_a, pos_a] = np.where(
                reported[scn_a], cell_q[n] + wire_q[n], 0.0
            )

        correlated = _correlated_totals(
            terms,
            union.index(0) if 0 in union else None,
            np.asarray(rhos, dtype=float),
        )

        # Report objects from the flat lists.
        stages_of: List[List[PathStage]] = [[] for _ in scenarios]
        mu, sigma, skew, kurt = (column.tolist() for column in moments)
        rows_l, in_slew_l, load_l = rows.tolist(), in_slew.tolist(), load.tolist()
        elm_l, xw_l = elm.tolist(), xw.tolist()
        cell_l = {n: q.tolist() for n, q in cell_q.items()}
        wire_l = {n: q.tolist() for n, q in wire_q.items()}
        c = -1
        for m, s in enumerate(scn):
            levels = levels_of[s]
            gate_name, cell_name, pin = info[m]
            if cell_name:
                c += 1
                out_rising, stage_slew = rising[c], in_slew_l[c]
                cell_moments: Optional[Moments] = Moments(
                    mu[c], sigma[c], skew[c], kurt[c], n=self._ref_n[rows_l[c]]
                )
            else:
                out_rising = scenarios[s].launch_rising
                stage_slew = scenarios[s].input_slew
                cell_moments = None
            stages_of[s].append(PathStage(
                gate=gate_name, cell_name=cell_name, input_pin=pin,
                output_rising=out_rising, net=nets[m], sink=sinks[m],
                input_slew=stage_slew, load=load_l[m], cell_moments=cell_moments,
                cell_quantiles={n: cell_l[n][m] for n in levels},
                wire_elmore=elm_l[m], wire_xw=xw_l[m],
                wire_quantiles={n: wire_l[n][m] for n in levels},
            ))
        row_of = {n: row for n, row in zip(union, correlated.tolist())}
        return (
            [
                PathTiming(stages=stages, levels=levels)
                for stages, levels in zip(stages_of, levels_of)
            ],
            [
                {n: row_of[n][s] for n in levels}
                for s, levels in enumerate(levels_of)
            ],
        )
