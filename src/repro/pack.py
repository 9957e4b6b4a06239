"""Packed binary design database: mmap-able ``.rpk`` artifacts.

Cold starts — server boot, LRU reload after an eviction, worker spawn —
previously paid a full JSON parse plus tensor rebuild for every design
and library bundle. This module stores the same documents in a
versioned binary container that loads by ``mmap`` + digest verify
instead, with every tensor exposed as a **read-only zero-copy view**
into the file, so concurrent threads (and processes mapping the same
pack) share one page-cache copy of the data.

File layout (all integers little-endian)::

    offset 0    +--------------------------------------------------+
                | header, 64 bytes:                                |
                |   magic      8s   b"REPROPAK"                    |
                |   version    u32  PACK_FORMAT_VERSION            |
                |   endian     u32  0x01020304 (byte-order canary) |
                |   man_off    u64  manifest offset (= 64)         |
                |   man_len    u64  manifest length in bytes       |
                |   data_off   u64  data section offset (64-align) |
                |   file_len   u64  total file size (truncation    |
                |                   sentinel)                      |
                |   man_sha    16s  sha256(manifest)[:16]          |
    offset 64   +--------------------------------------------------+
                | manifest: canonical JSON                         |
                |   {"format", "version", "kind", "meta",          |
                |    "doc": <skeleton>, "segments": [...]}         |
    data_off    +--------------------------------------------------+
                | tensor segments: raw little-endian array bytes,  |
                | each starting at a 64-byte-aligned offset        |
                +--------------------------------------------------+

The *manifest* carries the JSON skeleton of the original document in
which every ndarray leaf is replaced by ``{"__ndarray_segment__": i}``,
plus one segment record per leaf: dotted name path, dtype string
(``"<f8"``, ``"<i8"``, ``"|b1"``, ...), shape, offset relative to the
data section, byte length, and the full sha256 of the segment bytes.
:meth:`PackFile.document` re-inflates the skeleton with
``np.frombuffer`` views, so existing ``from_dict`` deserializers
(whose ``np.asarray`` calls pass matching-dtype arrays through without
copying) work on packed documents unchanged — and without copies.

Zero-copy caveats (see ``docs/packing.md``): the views are *read-only*
(writing raises ``ValueError``), and each view keeps the underlying
``mmap`` alive through its ``base`` chain, so the mapping persists
until the last array referencing it is garbage collected — dropping the
:class:`PackFile` alone does not unmap the file.

Corruption never deserializes: :meth:`PackFile.open` validates the
header (magic, format version, endianness canary, truncation sentinel,
manifest digest and bounds) before parsing anything, and
``verify=True`` (the default everywhere artifacts cross a trust
boundary) re-hashes every segment against its recorded sha256. Failures
raise :class:`~repro.errors.PackError` with a machine-readable ``code``
that the ``PCK001``–``PCK004`` lint rules map onto diagnostics.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import shutil
import struct
import tempfile
from pathlib import Path
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import PackError

#: First 8 bytes of every pack file.
MAGIC = b"REPROPAK"

#: Format version written into the header and the manifest; bumping it
#: invalidates every existing pack (and, via the ``pack_format`` entry
#: of :func:`repro.cache.version_salt`, every content-keyed artifact).
PACK_FORMAT_VERSION = 1

#: Fixed header size in bytes.
HEADER_SIZE = 64

#: Alignment of every tensor segment (and of the data section itself).
SEGMENT_ALIGN = 64

#: Little-endian byte-order canary; a pack written with the opposite
#: byte order would read back as 0x04030201.
ENDIAN_MARK = 0x01020304

#: Canonical file suffix.
PACK_SUFFIX = ".rpk"

#: Marker key replacing ndarray leaves in the manifest skeleton.
SEGMENT_KEY = "__ndarray_segment__"

#: Manifest ``kind`` of a packed :class:`~repro.core.sta_compiled.CompiledDesign`.
COMPILED_DESIGN_KIND = "sta_compiled"

#: Manifest ``kind`` of a packed library characterization bundle.
LIBRARY_KIND = "library_characterization"

# magic, version, endian mark, manifest offset/length, data offset,
# file length, manifest sha256 prefix — exactly HEADER_SIZE bytes.
_HEADER = struct.Struct("<8sIIQQQQ16s")
assert _HEADER.size == HEADER_SIZE

#: ndarray dtype kinds a pack may carry (floats, ints, uints, bools).
_SUPPORTED_KINDS = frozenset("fiub")


def _align(offset: int) -> int:
    return (offset + SEGMENT_ALIGN - 1) // SEGMENT_ALIGN * SEGMENT_ALIGN


def _canonical_array(name: str, arr: np.ndarray) -> np.ndarray:
    """C-contiguous little-endian form of a segment array."""
    if arr.dtype.kind not in _SUPPORTED_KINDS:
        raise PackError(
            f"segment {name!r} has unsupported dtype {arr.dtype!s} "
            f"(only float/int/uint/bool arrays pack)",
            code="dtype",
        )
    arr = np.ascontiguousarray(arr)
    if arr.dtype.byteorder == ">" or (
        arr.dtype.byteorder == "=" and not _little_endian_host()
    ):
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    return arr


def _little_endian_host() -> bool:
    import sys

    return sys.byteorder == "little"


def _extract_segments(
    doc: Any,
) -> Tuple[Any, List[Tuple[str, np.ndarray]]]:
    """Split a document into a JSON skeleton + its ndarray leaves.

    Every ndarray in the (dict/list/scalar) tree is replaced by a
    ``{SEGMENT_KEY: i}`` placeholder and collected, named by its dotted
    path (``"levels.3.elm_in"``), in deterministic traversal order.
    """
    segments: List[Tuple[str, np.ndarray]] = []

    def walk(node: Any, path: str) -> Any:
        if isinstance(node, np.ndarray):
            segments.append((path or f"segment{len(segments)}", node))
            return {SEGMENT_KEY: len(segments) - 1}
        if isinstance(node, dict):
            if SEGMENT_KEY in node:
                raise PackError(
                    f"document key {SEGMENT_KEY!r} at {path!r} collides "
                    f"with the segment placeholder",
                    code="document",
                )
            return {
                str(k): walk(v, f"{path}.{k}" if path else str(k))
                for k, v in node.items()
            }
        if isinstance(node, (list, tuple)):
            return [walk(v, f"{path}.{i}" if path else str(i)) for i, v in enumerate(node)]
        return node

    return walk(doc, ""), segments


def _write_atomic(path: Path, fill: Callable[[BinaryIO], None]) -> None:
    """Write ``path`` through ``fill``: unique ``*.tmp`` sibling, fsync, rename."""
    fd, tmp_name = tempfile.mkstemp(
        prefix=f"{path.name}.{os.getpid()}.", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fill(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    finally:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass


def write_pack(
    path: Union[str, Path],
    kind: str,
    doc: Dict[str, Any],
    meta: Optional[Dict[str, Any]] = None,
    perf=None,
) -> Path:
    """Serialize ``doc`` (a dict tree with ndarray leaves) to ``path``.

    The write is atomic in the :meth:`repro.cache.JsonCache.put` style:
    a process-unique ``*.tmp`` sibling is written, fsynced, and renamed
    over the final path, so readers never observe a torn pack. Emits a
    ``pack_write`` event on ``perf`` (the ``pack_writes`` counter and
    its journal line).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    skeleton, raw_segments = _extract_segments(doc)

    records: List[Dict[str, Any]] = []
    blobs: List[bytes] = []
    cursor = 0
    for name, arr in raw_segments:
        arr = _canonical_array(name, arr)
        blob = arr.tobytes()
        offset = _align(cursor)
        records.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(blob),
                "sha256": hashlib.sha256(blob).hexdigest(),
            }
        )
        blobs.append(blob)
        cursor = offset + len(blob)

    manifest = {
        "format": "repro-pack",
        "version": PACK_FORMAT_VERSION,
        "kind": kind,
        "meta": dict(meta or {}),
        "doc": skeleton,
        "segments": records,
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode()
    data_off = _align(HEADER_SIZE + len(manifest_bytes))
    file_len = data_off + cursor
    header = _HEADER.pack(
        MAGIC,
        PACK_FORMAT_VERSION,
        ENDIAN_MARK,
        HEADER_SIZE,
        len(manifest_bytes),
        data_off,
        file_len,
        hashlib.sha256(manifest_bytes).digest()[:16],
    )

    def fill(fh: BinaryIO) -> None:
        fh.write(header)
        fh.write(manifest_bytes)
        fh.write(b"\0" * (data_off - HEADER_SIZE - len(manifest_bytes)))
        for record, blob in zip(records, blobs):
            fh.seek(data_off + record["offset"])
            fh.write(blob)
        # A trailing zero-length (or align-padded) segment seeks past
        # EOF without writing; pin the file to its recorded length.
        fh.truncate(file_len)

    _write_atomic(path, fill)

    if perf is not None:
        perf.event(
            "pack_write", {"pack_writes": 1},
            path=str(path),
            kind=kind,
            nbytes=file_len,
            n_segments=len(records),
        )
    return path


def copy_pack(source: Union[str, Path], path: Union[str, Path]) -> Path:
    """Copy the pack file ``source`` to ``path`` byte for byte.

    The copy is the same artifact (same :meth:`PackFile.identity`) and
    lands as atomically as :func:`write_pack` writes, without encoding
    anything again; it is not counted in ``pack_writes``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(source, "rb") as src:
        _write_atomic(path, lambda fh: shutil.copyfileobj(src, fh))
    return path


class PackFile:
    """One opened (memory-mapped) ``.rpk`` pack.

    Construct via :meth:`open`. The instance owns the ``mmap``; arrays
    returned by :meth:`array` / :meth:`document` are read-only views
    whose ``base`` chain keeps the mapping alive, so they outlive the
    ``PackFile`` object itself (but never the *content* checks — a pack
    is fully validated before any view is handed out).
    """

    def __init__(
        self,
        path: Path,
        mm: mmap.mmap,
        manifest: Dict[str, Any],
        manifest_sha256: str,
    ):
        self.path = path
        self._mm = mm
        self._view = memoryview(mm)
        self.manifest = manifest
        self.manifest_sha256 = manifest_sha256
        self.version = int(manifest["version"])
        self.kind = str(manifest["kind"])
        self.meta: Dict[str, Any] = dict(manifest.get("meta", {}))
        self.segments: List[Dict[str, Any]] = list(manifest["segments"])
        self._data_off = int(manifest["__data_off__"])
        self._data_len = int(manifest["__data_len__"])

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        verify: bool = True,
        perf=None,
    ) -> "PackFile":
        """mmap ``path`` and validate it (header always; digests if ``verify``).

        Raises :class:`PackError` (with ``code``) on any validation
        failure — the manifest is not even JSON-parsed until the header
        magic, version, endianness canary, truncation sentinel and
        manifest digest all check out, so corrupt bytes can never reach
        a deserializer. Emits a ``pack_load`` event on ``perf`` (the
        ``pack_loads`` counter and its journal line) on success.
        """
        path = Path(path)
        try:
            with path.open("rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                if size < HEADER_SIZE:
                    raise PackError(
                        f"{path}: {size} bytes is smaller than the "
                        f"{HEADER_SIZE}-byte pack header",
                        code="truncated",
                    )
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except OSError as exc:
            raise PackError(f"{path}: unreadable pack: {exc}", code="io") from exc

        try:
            pack = cls._parse(path, mm, size)
        except Exception:
            mm.close()
            raise
        if verify:
            pack.verify(perf=perf)
        if perf is not None:
            perf.event(
                "pack_load", {"pack_loads": 1},
                path=str(path),
                kind=pack.kind,
                identity=pack.identity(),
                nbytes=size,
                n_segments=len(pack.segments),
                verified=bool(verify),
            )
        return pack

    @classmethod
    def _parse(cls, path: Path, mm: mmap.mmap, size: int) -> "PackFile":
        (
            magic,
            version,
            endian_mark,
            man_off,
            man_len,
            data_off,
            file_len,
            man_sha,
        ) = _HEADER.unpack(mm[:HEADER_SIZE])
        if magic != MAGIC:
            raise PackError(
                f"{path}: bad magic {magic!r} (expected {MAGIC!r})", code="magic"
            )
        if endian_mark != ENDIAN_MARK:
            raise PackError(
                f"{path}: endianness mark 0x{endian_mark:08x} != "
                f"0x{ENDIAN_MARK:08x}; the pack was written with a "
                f"foreign byte order",
                code="endian",
            )
        if version > PACK_FORMAT_VERSION or version < 1:
            raise PackError(
                f"{path}: pack format v{version} is not supported by "
                f"this reader (supports up to v{PACK_FORMAT_VERSION})",
                code="version",
            )
        if file_len != size:
            raise PackError(
                f"{path}: header records {file_len} bytes but the file "
                f"has {size} (truncated or padded pack)",
                code="truncated",
            )
        if man_off != HEADER_SIZE or man_off + man_len > size or data_off > size:
            raise PackError(
                f"{path}: manifest [{man_off}, {man_off + man_len}) or "
                f"data offset {data_off} out of bounds for {size} bytes",
                code="truncated",
            )
        manifest_bytes = bytes(mm[man_off : man_off + man_len])
        digest = hashlib.sha256(manifest_bytes)
        if digest.digest()[:16] != man_sha:
            raise PackError(
                f"{path}: manifest sha256 mismatch (header records "
                f"{man_sha.hex()}, manifest hashes to "
                f"{digest.digest()[:16].hex()})",
                code="digest",
            )
        try:
            manifest = json.loads(manifest_bytes)
        except json.JSONDecodeError as exc:
            raise PackError(
                f"{path}: manifest is not valid JSON: {exc}", code="manifest"
            ) from exc
        if not isinstance(manifest, dict) or manifest.get("format") != "repro-pack":
            raise PackError(
                f"{path}: manifest format "
                f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r} "
                f"is not 'repro-pack'",
                code="manifest",
            )
        data_len = size - data_off
        for record in manifest.get("segments", ()):
            end = int(record["offset"]) + int(record["nbytes"])
            if int(record["offset"]) < 0 or end > data_len:
                raise PackError(
                    f"{path}: segment {record.get('name')!r} "
                    f"[{record['offset']}, {end}) exceeds the "
                    f"{data_len}-byte data section",
                    code="bounds",
                )
        manifest["__data_off__"] = data_off
        manifest["__data_len__"] = data_len
        return cls(path, mm, manifest, digest.hexdigest())

    # ------------------------------------------------------------------
    def verify(self, perf=None) -> None:
        """Re-hash every segment against its recorded sha256.

        Raises :class:`PackError` (``code="digest"``) naming the first
        mismatching segment. Emits a ``pack_verify`` event on ``perf``
        (the ``pack_verifies`` counter and a journal line with the
        outcome).
        """
        error: Optional[PackError] = None
        for i, record in enumerate(self.segments):
            blob = self._segment_bytes(i)
            actual = hashlib.sha256(blob).hexdigest()
            if actual != record["sha256"]:
                error = PackError(
                    f"{self.path}: segment {record['name']!r} sha256 "
                    f"mismatch (recorded {record['sha256'][:16]}..., "
                    f"content hashes to {actual[:16]}...)",
                    code="digest",
                )
                break
        if perf is not None:
            perf.event(
                "pack_verify", {"pack_verifies": 1},
                path=str(self.path),
                kind=self.kind,
                ok=error is None,
                error=str(error) if error is not None else None,
            )
        if error is not None:
            raise error

    # ------------------------------------------------------------------
    def _segment_bytes(self, index: int) -> memoryview:
        record = self.segments[index]
        start = self._data_off + int(record["offset"])
        return self._view[start : start + int(record["nbytes"])]

    def array(self, which: Union[int, str]) -> np.ndarray:
        """Read-only zero-copy view of one segment (by index or name path)."""
        if isinstance(which, str):
            for i, record in enumerate(self.segments):
                if record["name"] == which:
                    which = i
                    break
            else:
                raise PackError(
                    f"{self.path}: no segment named {which!r}", code="bounds"
                )
        record = self.segments[which]
        arr = np.frombuffer(self._segment_bytes(which), dtype=np.dtype(record["dtype"]))
        return arr.reshape(tuple(record["shape"]))

    def document(self) -> Dict[str, Any]:
        """The packed document with every ndarray leaf as a mmap view."""

        def resolve(node: Any) -> Any:
            if isinstance(node, dict):
                if set(node) == {SEGMENT_KEY}:
                    return self.array(int(node[SEGMENT_KEY]))
                return {k: resolve(v) for k, v in node.items()}
            if isinstance(node, list):
                return [resolve(v) for v in node]
            return node

        return resolve(self.manifest["doc"])

    # ------------------------------------------------------------------
    def identity(self) -> str:
        """Content identity: format version + manifest digest.

        The manifest digest covers every segment sha256, dtype, shape
        and the document skeleton, so two packs share an identity iff
        they are byte-equivalent artifacts of the same format version.
        """
        return hashlib.sha256(
            f"rpk-v{self.version}:{self.manifest_sha256}".encode()
        ).hexdigest()[:16]

    @property
    def nbytes(self) -> int:
        """Total mapped file size in bytes."""
        return len(self._view)

    @property
    def tensor_nbytes(self) -> int:
        """Bytes of the tensor segments (the mmap-shared payload)."""
        return sum(int(r["nbytes"]) for r in self.segments)

    def close(self) -> None:
        """Release this handle's view of the mapping.

        Arrays already handed out keep the ``mmap`` alive through their
        ``base`` chain; this only drops the :class:`PackFile`'s own
        references so an unused pack unmaps promptly.
        """
        self._view = memoryview(b"")
        # The mmap object itself stays open while exported buffers
        # exist; numpy views hold such buffers, so never force-close.
        self._mm = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackFile({str(self.path)!r}, kind={self.kind!r}, "
            f"v{self.version}, {len(self.segments)} segments)"
        )


# ----------------------------------------------------------------------
# Domain helpers (lazy imports: repro.cache imports this module)
# ----------------------------------------------------------------------
def pack_compiled_design(
    design,
    path: Union[str, Path],
    design_key: str = "",
    perf=None,
) -> Path:
    """Write a :class:`~repro.core.sta_compiled.CompiledDesign` pack.

    ``design_key`` (from
    :func:`~repro.core.sta_compiled.design_cache_key`) and the design's
    calibration digest are recorded in the manifest meta; loaders and
    lint rule ``PCK004`` refuse to serve a pack whose recorded identity
    no longer matches the live circuit + calibration.
    """
    meta = {
        "artifact": COMPILED_DESIGN_KIND,
        "circuit_name": design.circuit_name,
        "design_cache_key": design_key,
        "calibration_digest": design.calibration_digest,
    }
    return write_pack(
        path,
        COMPILED_DESIGN_KIND,
        design.to_dict(),
        meta=meta,
        perf=perf,
    )


def load_compiled_design(
    path: Union[str, Path],
    verify: bool = True,
    expected_key: Optional[str] = None,
    perf=None,
):
    """mmap a compiled-design pack into a zero-copy ``CompiledDesign``.

    With ``expected_key`` given, a pack whose recorded
    ``design_cache_key`` differs raises :class:`PackError`
    (``code="stale"``) — the stale-artifact guard behind lint rule
    ``PCK004`` and the registry's reload path. The returned design
    holds the :class:`PackFile` on its ``pack`` attribute.
    """
    from repro.core.sta_compiled import CompiledDesign

    pf = PackFile.open(path, verify=verify, perf=perf)
    if pf.kind != COMPILED_DESIGN_KIND:
        raise PackError(
            f"{path}: pack kind {pf.kind!r} is not a compiled design",
            code="kind",
        )
    if expected_key is not None and pf.meta.get("design_cache_key") != expected_key:
        raise PackError(
            f"{path}: pack was built for design_cache_key "
            f"{pf.meta.get('design_cache_key')!r}, not {expected_key!r} "
            f"(stale circuit, calibration, or code version)",
            code="stale",
        )
    design = CompiledDesign.from_dict(pf.document())
    design.pack = pf
    return design


def pack_library_characterization(
    charac,
    path: Union[str, Path],
    perf=None,
) -> Path:
    """Write a library characterization bundle as a pack.

    Mirrors :func:`repro.cells.liberty.save_library_characterization`
    (same document schema) with the per-arc tables' index/moment/
    quantile grids as binary segments.
    """
    from repro.cells.liberty import characterization_to_dict

    doc = characterization_to_dict(charac, arrays=True)
    meta = {"artifact": LIBRARY_KIND, "n_tables": len(charac.tables)}
    return write_pack(path, LIBRARY_KIND, doc, meta=meta, perf=perf)


def load_library_characterization_pack(
    path: Union[str, Path],
    verify: bool = True,
    perf=None,
):
    """mmap a library pack into a ``LibraryCharacterization``.

    The returned bundle carries the :class:`PackFile` on its ``pack``
    attribute, which lets :class:`repro.parallel.SharedPayloadBank`
    publication short-circuit to the mmap'd file instead of copying the
    payload into POSIX shared memory.
    """
    from repro.cells.liberty import FORMAT, characterization_from_dict

    pf = PackFile.open(path, verify=verify, perf=perf)
    if pf.kind != LIBRARY_KIND:
        raise PackError(
            f"{path}: pack kind {pf.kind!r} is not a library "
            f"characterization bundle",
            code="kind",
        )
    doc = pf.document()
    if doc.get("format") != FORMAT:
        raise PackError(
            f"{path}: packed document format {doc.get('format')!r} is "
            f"not {FORMAT!r}",
            code="manifest",
        )
    out = characterization_from_dict(doc, source=str(path))
    out.pack = pf
    return out


def load_pack_payload(path: Union[str, Path], verify: bool = True):
    """Rebuild the domain object a pack holds (worker-side attach).

    Dispatches on the manifest ``kind``: compiled designs and library
    bundles come back as their domain classes (pack attached);
    any other kind returns the raw zero-copy document.
    """
    pf = PackFile.open(path, verify=False)
    if pf.kind == COMPILED_DESIGN_KIND:
        pf.close()
        return load_compiled_design(path, verify=verify)
    if pf.kind == LIBRARY_KIND:
        pf.close()
        return load_library_characterization_pack(path, verify=verify)
    if verify:
        pf.verify()
    return pf.document()


def delist_document(doc: Any) -> Any:
    """Deep-copy a document with every ndarray leaf as nested lists.

    The inverse direction of packing: ``repro unpack`` uses it to emit
    the plain-JSON artifact equivalent to a pack's content.
    """
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: delist_document(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [delist_document(v) for v in doc]
    return doc
