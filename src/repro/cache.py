"""Content-hashed on-disk cache for expensive simulation artifacts.

Characterizing a library point takes seconds; a full grid takes minutes.
The artifacts are pure functions of their inputs (netlist, variation
model, grid, sample count, seed), so they are cached on disk keyed by a
SHA-256 hash of a canonical-JSON payload describing exactly those
inputs — change any knob and the key changes, touch nothing and the
cache hits forever.

Small human-readable artifacts (arc tables, fitted models) are JSON
files, ``<kind>_<key>.json``. Compiled designs are tensor-heavy and
are stored as mmap-able ``.rpk`` packs (:mod:`repro.pack`),
``<kind>_<key>.rpk``, in the same directory and under the same
hit/miss/corrupt accounting (:meth:`JsonCache.get_pack`). That
accounting is the ``cache_*`` counters of the cache's
:class:`~repro.perf.PerfCounters`; a corrupt artifact is also a
``cache_corrupt`` journal event when a journal is attached to them.

This module was promoted out of the benchmark harness so the CLI,
examples and tests all share one cache. The default location is
``.repro_cache/`` in the working directory, overridable with the
``REPRO_CACHE_DIR`` environment variable. Purge by deleting the
directory or calling :meth:`JsonCache.purge`.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional, TypeVar, Union

from repro.perf import PerfCounters

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Fallback cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

T = TypeVar("T")


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``.repro_cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV, "") or DEFAULT_CACHE_DIR)


def version_salt() -> Dict[str, str]:
    """Identity of the code that produces cached artifacts.

    Folding the package version into every content key means a release
    that changes the physics (device model, solver, calibration math)
    invalidates all previously cached characterization tables instead
    of replaying stale data forever. The resolved kernel backend
    identity (``repro.kernels.backend_identity``) is part of the salt
    for the same reason: artifacts simulated by different numeric
    backends must never alias, even though accelerated backends are
    held to the documented equivalence envelope.
    """
    from repro import __version__
    from repro.kernels import backend_identity
    from repro.pack import PACK_FORMAT_VERSION

    return {
        "repro_version": __version__,
        "kernel": backend_identity(),
        # Pack identity: a format bump re-keys every content-addressed
        # artifact, so a `.rpk` written by an old layout can never be
        # looked up (let alone served) by a new reader.
        "pack_format": f"rpk-v{PACK_FORMAT_VERSION}",
    }


def content_key(payload: Any, length: int = 16, versioned: bool = True) -> str:
    """Stable hex digest of a JSON-serializable payload.

    The payload is serialized with sorted keys and repr-fallback for
    non-JSON values (tuples become lists, dataclasses should be passed
    through ``asdict`` by the caller), then hashed with SHA-256.

    ``versioned=True`` (the default) mixes :func:`version_salt` into the
    digest so artifacts cached by one package version are never reused
    by another; pass ``False`` only for keys that must survive releases.
    """
    import hashlib

    doc: Any = payload
    if versioned:
        doc = {"salt": version_salt(), "payload": payload}
    blob = json.dumps(doc, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:length]


class JsonCache:
    """A directory of ``<kind>_<key>.json`` artifacts with hit/miss counters.

    The same directory also holds ``<kind>_<key>.rpk`` packs, read
    through :meth:`get_pack` with the same accounting; the compile
    cache of :func:`repro.core.sta_compiled.compile_design` uses them.

    Safe under concurrent writers: every :meth:`put` writes to a
    process-unique temp file (two processes storing the same key can
    never truncate each other mid-write), fsyncs it, and atomically
    renames it over the final path — last writer wins with a complete
    artifact. Orphaned ``*.tmp`` files from crashed writers are swept
    on construction. A truncated or otherwise corrupt artifact is
    treated as a miss: the bad file is unlinked and reported through
    ``perf.event("cache_corrupt")``, which bumps ``cache_corrupt`` and
    journals the path.

    Parameters
    ----------
    directory:
        Cache root; created lazily on first :meth:`put`. ``None`` uses
        :func:`default_cache_dir`.
    perf:
        :class:`~repro.perf.PerfCounters` receiving ``cache_hits`` /
        ``cache_misses`` / ``cache_corrupt`` (and ``cache_corrupt``
        events); the cache owns a fresh one when none is given.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        perf: Optional[PerfCounters] = None,
    ):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.perf = perf if perf is not None else PerfCounters()
        self.sweep_orphans()

    # ------------------------------------------------------------------
    def sweep_orphans(self) -> int:
        """Delete leftover ``*.tmp`` files from crashed writers; returns count.

        Called on construction; this covers the temp files of both
        :meth:`put` and the pack writer behind :meth:`put_pack`. A temp
        file belonging to a concurrent live writer may be swept too;
        both writers recover from that by rewriting (the atomic rename
        simply fails and is retried with a fresh temp file), so the
        sweep is always safe.
        """
        if not self.directory.exists():
            return 0
        removed = 0
        for orphan in self.directory.glob("*.tmp"):
            try:
                orphan.unlink()
                removed += 1
            except OSError:  # pragma: no cover - raced with another sweep
                pass
        return removed

    # ------------------------------------------------------------------
    def path(self, kind: str, key: str) -> Path:
        """File path of an artifact (may not exist yet)."""
        return self.directory / f"{kind}_{key}.json"

    def pack_path(self, kind: str, key: str) -> Path:
        """File path of a packed artifact (may not exist yet)."""
        from repro.pack import PACK_SUFFIX

        return self.directory / f"{kind}_{key}{PACK_SUFFIX}"

    def get(self, kind: str, key: str) -> Optional[Dict[str, Any]]:
        """Load an artifact, or ``None`` on miss (or unreadable file).

        A file that exists but does not parse (truncated by a crashed
        writer, bit-rot) is *corrupt*: it is unlinked so it cannot keep
        shadowing the key, counted separately from plain misses, and
        reported as a miss to the caller — the artifact is simply
        recomputed and re-stored.

        A file that vanishes between the existence check and the open —
        a concurrent reader's corrupt-unlink, or a purge — is a plain
        miss, not corruption: this reader never saw the bytes, so it has
        no grounds to count (or unlink) anything.
        """

        def read(path: Path) -> Dict[str, Any]:
            with path.open() as fh:
                return json.load(fh)

        return self._load(self.path(kind, key), read, json.JSONDecodeError)

    def get_pack(self, kind: str, key: str, load: Callable[[Path], T]) -> Optional[T]:
        """Open :meth:`pack_path` with ``load``, or ``None`` on miss.

        ``load`` maps the path to the artifact and raises
        :class:`~repro.errors.PackError` (or ``OSError``) when the pack
        does not validate; such a pack is corrupt and handled as in
        :meth:`get`: unlinked, counted, reported as a miss.
        """
        from repro.errors import PackError

        return self._load(self.pack_path(kind, key), load, PackError)

    def _load(self, path: Path, read: Callable[[Path], T], errors) -> Optional[T]:
        if not path.exists():
            self.perf.incr(cache_misses=1)
            return None
        try:
            doc = read(path)
        except (OSError, errors) as exc:
            if isinstance(exc, FileNotFoundError) or isinstance(
                exc.__cause__, FileNotFoundError
            ):
                self.perf.incr(cache_misses=1)
                return None
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced with another reader
                pass
            self.perf.event(
                "cache_corrupt", {"cache_corrupt": 1, "cache_misses": 1},
                path=str(path), error=f"{type(exc).__name__}: {exc}",
            )
            return None
        self.perf.incr(cache_hits=1)
        return doc

    def put(self, kind: str, key: str, doc: Dict[str, Any]) -> Path:
        """Store an artifact atomically (unique temp file, fsync, rename).

        The temp name embeds the PID plus a random suffix, so concurrent
        writers of the *same* key each write their own complete file and
        the atomic ``os.replace`` serializes them — a reader sees either
        the old artifact or a complete new one, never a torn write.
        """
        path = self.path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(doc)
        # Retry once if a concurrent cache construction swept our live
        # temp file between write and rename (see sweep_orphans).
        for attempt in (0, 1):
            fd, tmp_name = tempfile.mkstemp(
                prefix=f"{kind}_{key}.{os.getpid()}.",
                suffix=".tmp",
                dir=str(path.parent),
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(payload)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp_name, path)
                return path
            except FileNotFoundError:
                if attempt:
                    raise
            finally:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        raise OSError(f"could not store cache artifact {path}")  # pragma: no cover

    def put_pack(self, kind: str, key: str, write: Callable[[Path], Path]) -> Path:
        """Store a pack at :meth:`pack_path` through ``write``.

        ``write`` is an atomic pack writer such as
        :func:`repro.pack.pack_compiled_design` bound to its artifact;
        it is retried once if a concurrent :meth:`sweep_orphans` took
        its live temp file before the rename.
        """
        path = self.pack_path(kind, key)
        try:
            return write(path)
        except FileNotFoundError:
            return write(path)

    def purge(self, kind: Optional[str] = None) -> int:
        """Delete cached JSON artifacts and packs (optionally only one ``kind``).

        Returns the number of files removed.
        """
        from repro.pack import PACK_SUFFIX

        if not self.directory.exists():
            return 0
        prefix = f"{kind}_*" if kind else "*"
        removed = 0
        for suffix in (".json", PACK_SUFFIX):
            for path in self.directory.glob(prefix + suffix):
                path.unlink()
                removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JsonCache({str(self.directory)!r}, "
            f"hits={self.perf.cache_hits}, misses={self.perf.cache_misses})"
        )
