"""Design registry with a bytes-budgeted LRU over compiled tensor banks.

A resident server holds warm :class:`~repro.core.sta_compiled.CompiledSTA`
engines so queries skip the compile step entirely — but compiled designs
are mostly dense numpy tensors, and an unbounded registry on a box
serving many designs grows without limit. The registry therefore splits
**registration** (cheap: remember the circuit + models and the content
cache key) from **residency** (expensive: the compiled tensors), and
bounds residency by *bytes*, not entry count: one large ISCAS-like
design can outweigh dozens of adder blocks, so counting entries would
bound nothing.

Eviction is least-recently-queried and is journaled (``serve_evict``)
so an operator can see thrash in the audit trail; an evicted design is
not an error — the next query recompiles it (or maps it back from the
``.rpk`` pack the compile cache keeps in its
:class:`~repro.cache.JsonCache` directory, which keeps the cold cost
at a digest-verified mmap rather than full levelization). The design
being served is never evicted to make room for itself, even when it
alone exceeds the budget.

With a packed artifact attached (:meth:`DesignRegistry.attach_pack`),
cold loads skip the compile path altogether (circuit lint, flat
parasitic pass, design key): the ``.rpk`` is ``mmap``'d
(:mod:`repro.pack`), digest-verified, and bound as read-only zero-copy
views, so a reload costs hashing + a small manifest parse, the tensor
bytes live in shared page cache across the worker threads, and the LRU
charges the design only its resident python side tables
(:func:`design_nbytes`). A pack that fails verification — corrupt
bytes, or a ``design_cache_key`` recorded against a different circuit
/ calibration / code version — is refused and journaled, and the
registry falls back to a normal compile.

All public methods are thread-safe: worker threads of the server pool
call :meth:`engine` concurrently. A per-entry build lock (double-checked
against residency) makes sure a design compiles once even when many
queries race for it cold, while builds of *different* designs proceed
in parallel.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.cache import JsonCache
from repro.core.sta import FlatParasitics, TimingModels, flatten_parasitics
from repro.core.sta_compiled import (
    CompiledDesign,
    CompiledSTA,
    compile_design,
    design_cache_key,
)
from repro.errors import ReproError
from repro.netlist.circuit import Circuit
from repro.perf import PerfCounters

#: Pessimistic per-entry estimate for the python-dict side tables of a
#: compiled design (sink_elmore / sink_xw): key tuple + float + dict slot.
_SINK_ENTRY_BYTES = 128


def design_nbytes(design: CompiledDesign) -> int:
    """Approximate resident size of a compiled design in bytes.

    Counts the dense tensors exactly (``ndarray.nbytes``) — the flat
    parasitic arrays (``net_load``, ``end_elmore``, per-level
    ``elm_in``) included, so they cannot escape the LRU budget — and
    the per-sink dicts at a flat pessimistic estimate; python object
    headers of the dataclass shell are noise at this scale.

    A pack-backed design (``design.pack`` set) is charged its
    **resident** size only: the tensor bytes are read-only views into a
    mmap'd ``.rpk`` — shared, reclaimable page cache, not private heap
    — so only the python side tables count against the budget.
    """
    side = (len(design.sink_elmore) + len(design.sink_xw)) * _SINK_ENTRY_BYTES
    if design.pack is not None:
        return side
    total = (
        design.input_nets.nbytes
        + design.net_load.nbytes
        + design.end_elmore.nbytes
    )
    for level in design.levels:
        total += (
            level.out_net.nbytes
            + level.load.nbytes
            + level.valid.nbytes
            + level.src_net.nbytes
            + level.elm_in.nbytes
            + level.inverting.nbytes
            + level.arc_rise.nbytes
            + level.arc_fall.nbytes
        )
    arcs = design.arcs
    total += (
        arcs.ref.nbytes
        + arcs.mu_coef.nbytes
        + arcs.sigma_coef.nbytes
        + arcs.skew_coef.nbytes
        + arcs.kurt_coef.nbytes
        + arcs.slew_ref.nbytes
        + arcs.slew_coef.nbytes
        + arcs.s_ref.nbytes
        + arcs.c_ref.nbytes
        + arcs.s_lo.nbytes
        + arcs.s_hi.nbytes
        + arcs.c_lo.nbytes
        + arcs.c_hi.nbytes
    )
    return total + side


@dataclass
class _Entry:
    """One registered design (resident or not)."""

    name: str
    circuit: Circuit
    models: TimingModels
    key: str
    build_lock: threading.Lock = field(default_factory=threading.Lock)
    engine: Optional[CompiledSTA] = None
    nbytes: int = 0
    queries: int = 0
    loads: int = 0
    pack_path: Optional[Path] = None
    mmap_backed: bool = False
    # The flat parasitic pass `register` keyed the design with, handed
    # to the first compile; dropped once that compile or a pack has
    # made it redundant.
    flat: Optional[FlatParasitics] = None


class DesignRegistry:
    """Named designs → warm compiled engines, under a byte budget.

    Parameters
    ----------
    cache:
        Optional compile-artifact :class:`~repro.cache.JsonCache`; with
        it, eviction demotes a design to a pack reload instead of a full
        recompile.
    perf:
        Shared counters; loads and evictions are ``serve_design_load`` /
        ``serve_evict`` events on them (counted under
        ``sta_serve_design_loads`` / ``sta_serve_evictions`` and
        journaled when a journal is attached), and the compiled engines
        report their own ``sta_*`` query work here.
    budget_bytes:
        Residency budget; ``None`` disables eviction. The budget bounds
        *tensor residency*, not registration — an evicted design stays
        registered and queryable.
    """

    def __init__(
        self,
        cache: Optional[JsonCache] = None,
        perf: Optional[PerfCounters] = None,
        budget_bytes: Optional[int] = None,
    ):
        self.cache = cache
        self.perf = perf if perf is not None else PerfCounters()
        self.budget_bytes = budget_bytes
        self._lock = threading.RLock()
        self._entries: Dict[str, _Entry] = {}
        # Residency order, least-recently-queried first.
        self._resident: "OrderedDict[str, _Entry]" = OrderedDict()

    # ------------------------------------------------------------------
    def register(
        self, name: str, circuit: Circuit, models: TimingModels
    ) -> str:
        """Register a design under ``name`` and return its content key.

        Registration is cheap — no compile happens until the first
        query. Re-registering an existing name replaces it (and drops
        any resident engine of the old content).
        """
        flat = flatten_parasitics(circuit, models)
        key = design_cache_key(circuit, models, flat)
        with self._lock:
            old = self._entries.get(name)
            if old is not None and old.key == key:
                return key
            if old is not None:
                self._resident.pop(name, None)
            self._entries[name] = _Entry(
                name=name, circuit=circuit, models=models, key=key, flat=flat
            )
        return key

    def attach_pack(
        self, name: str, path: Union[str, Path], verify: bool = True
    ) -> bool:
        """Attach a ``.rpk`` as the cold-load source of a registered design.

        The pack is validated **now** — header checks, per-segment
        sha256 digests (unless ``verify=False``), manifest kind, and
        the recorded ``design_cache_key`` against the live registration
        key (the PCK004 staleness contract: a pack built from a
        different circuit, calibration, or code version can never serve
        answers). Returns ``True`` and remembers the path on success;
        an invalid or stale pack is refused with a ``pack_verify``
        (``ok: false``) journal event and ``False`` — the design then
        simply compiles (or reloads from the compile cache) as before.

        Subsequent cold loads — first query and every
        reload-after-eviction — ``mmap`` the pack instead of parsing,
        binding tensors as read-only zero-copy views.
        """
        from repro.pack import COMPILED_DESIGN_KIND, PackError, PackFile

        path = Path(path)
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise ReproError(f"design {name!r} is not registered")
            key = entry.key
        try:
            pack = PackFile.open(path, verify=verify)
            try:
                if pack.kind != COMPILED_DESIGN_KIND:
                    raise PackError(
                        f"{path}: pack kind {pack.kind!r} is not a "
                        f"compiled design",
                        code="kind",
                    )
                recorded = pack.meta.get("design_cache_key")
                if recorded != key:
                    raise PackError(
                        f"{path}: pack records design_cache_key "
                        f"{recorded!r} but {name!r} is registered under "
                        f"{key!r} (stale artifact)",
                        code="stale",
                    )
            finally:
                pack.close()
        except PackError as exc:
            self.perf.event(
                "pack_verify",
                path=str(path),
                design=name,
                ok=False,
                error=str(exc),
            )
            return False
        with self._lock:
            if self._entries.get(name) is entry:
                entry.pack_path = path
                entry.flat = None
        return True

    def _load_from_pack(self, entry: _Entry) -> Optional[CompiledDesign]:
        """mmap ``entry.pack_path`` into a design, or ``None`` to fall back.

        Verification runs on every load (digests + recorded key), so a
        pack corrupted or replaced *after* :meth:`attach_pack` is still
        refused; the failure is journaled and the caller recompiles.
        """
        from repro.pack import PackError, load_compiled_design

        try:
            return load_compiled_design(
                entry.pack_path,
                verify=True,
                expected_key=entry.key,
                perf=self.perf,
            )
        except (PackError, OSError) as exc:
            self.perf.event(
                "pack_verify",
                path=str(entry.pack_path),
                design=entry.name,
                ok=False,
                error=str(exc),
            )
            return None

    def names(self) -> List[str]:
        """Registered design names, insertion-ordered."""
        with self._lock:
            return list(self._entries)

    def key(self, name: str) -> str:
        """Content cache key of a registered design."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise ReproError(f"design {name!r} is not registered")
            return entry.key

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    @property
    def resident_bytes(self) -> int:
        """Total estimated bytes of resident compiled tensors."""
        with self._lock:
            return sum(e.nbytes for e in self._resident.values())

    # ------------------------------------------------------------------
    def engine(self, name: str) -> CompiledSTA:
        """Warm engine for ``name``, compiling/reloading it if cold.

        Thread-safe; concurrent cold queries for the same design build
        it exactly once (the rest wait on the entry's build lock), and
        cold builds of different designs do not serialize each other.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise ReproError(f"design {name!r} is not registered")
            if entry.engine is not None:
                self._resident.move_to_end(name)
                entry.queries += 1
                return entry.engine

        # Cold: build outside the registry lock so other designs keep
        # serving, but once per entry via its build lock.
        with entry.build_lock:
            with self._lock:
                if entry.engine is not None and self._entries.get(name) is entry:
                    self._resident.move_to_end(name)
                    entry.queries += 1
                    return entry.engine
            design = None
            if entry.pack_path is not None:
                design = self._load_from_pack(entry)
            if design is None:
                design = compile_design(
                    entry.circuit,
                    entry.models,
                    cache=self.cache,
                    perf=self.perf,
                    flat=entry.flat,
                )
                entry.flat = None
            engine = CompiledSTA(
                entry.circuit, entry.models, perf=self.perf, design=design
            )
            nbytes = design_nbytes(design)
            with self._lock:
                if self._entries.get(name) is not entry:
                    # Replaced by a concurrent re-register; serve the
                    # build we have but do not admit it to residency.
                    return engine
                entry.engine = engine
                entry.nbytes = nbytes
                entry.mmap_backed = design.pack is not None
                entry.queries += 1
                entry.loads += 1
                self._resident[name] = entry
                self._resident.move_to_end(name)
                self.perf.event(
                    "serve_design_load", {"sta_serve_design_loads": 1},
                    design=name,
                    key=entry.key,
                    nbytes=nbytes,
                    n_gates=design.n_gates,
                    n_levels=design.n_levels,
                    source="pack" if entry.mmap_backed else "compile",
                    resident_bytes=sum(
                        e.nbytes for e in self._resident.values()
                    ),
                )
                self._evict_over_budget(keep=name)
        return engine

    def _evict_over_budget(self, keep: str) -> None:
        """Drop least-recently-queried residents while over budget.

        Caller holds ``self._lock``. ``keep`` (the design being served)
        is never evicted, so one over-budget design still serves.
        """
        if self.budget_bytes is None:
            return
        while sum(e.nbytes for e in self._resident.values()) > self.budget_bytes:
            victim_name = next(
                (n for n in self._resident if n != keep), None
            )
            if victim_name is None:
                return
            victim = self._resident.pop(victim_name)
            victim.engine = None
            victim.mmap_backed = False
            freed = victim.nbytes
            victim.nbytes = 0
            self.perf.event(
                "serve_evict", {"sta_serve_evictions": 1},
                design=victim_name,
                key=victim.key,
                freed_bytes=freed,
                resident_bytes=sum(
                    e.nbytes for e in self._resident.values()
                ),
            )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Snapshot for the ``/stats`` endpoint (JSON-safe)."""
        with self._lock:
            designs = []
            for name, entry in self._entries.items():
                designs.append(
                    {
                        "name": name,
                        "key": entry.key,
                        "resident": entry.engine is not None,
                        "nbytes": entry.nbytes,
                        "queries": entry.queries,
                        "loads": entry.loads,
                        "mmap": entry.mmap_backed,
                        "pack": str(entry.pack_path)
                        if entry.pack_path is not None
                        else None,
                    }
                )
            return {
                "designs": designs,
                "resident_bytes": sum(
                    e.nbytes for e in self._resident.values()
                ),
                "budget_bytes": self.budget_bytes,
            }
