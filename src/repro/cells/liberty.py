"""Liberty-like JSON persistence of characterization data.

Industrial flows store this data in Liberty files with LVF
(Liberty Variation Format) extensions; here the same content —
per-arc lookup tables of moments, sigma-level quantiles and output
slews, indexed by input slew and output load — is serialized as JSON,
which keeps the repository dependency-free while staying faithful to
the LVF structure (``index_1`` = slews, ``index_2`` = loads, one
``values`` block per quantity).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import CharacterizationError
from repro.cells.characterize import (
    CharacterizationTable,
    LibraryCharacterization,
    QuarantinedArc,
)
from repro.moments.stats import SIGMA_LEVELS

#: Format identifier written into every file.
FORMAT = "repro-lvf-json"
FORMAT_VERSION = 1


def table_to_dict(table: CharacterizationTable, arrays: bool = False) -> dict:
    """One arc table as a plain-JSON record (inverse of :func:`table_from_dict`).

    ``arrays=True`` keeps ndarray leaves (for the binary pack writer;
    the per-moment slices are made contiguous so they segment cleanly).
    """
    keep = (
        (lambda a: np.ascontiguousarray(a)) if arrays else (lambda a: a.tolist())
    )
    record = {
        "cell": table.cell_name,
        "pin": table.pin,
        "edge": "rise" if table.output_rising else "fall",
        "n_samples": table.n_samples,
        "index_1_slew_s": keep(table.slews),
        "index_2_load_f": keep(table.loads),
        "moments": {
            name: keep(table.moments[..., k])
            for k, name in enumerate(("mu", "sigma", "skew", "kurt"))
        },
        "sigma_levels": list(SIGMA_LEVELS),
        "quantiles": keep(table.quantiles),
        "out_slew": keep(table.out_slew),
    }
    # Dense tables keep the historical record layout bit-for-bit; the
    # key exists only on surrogate-produced tables (lint rule SUR003).
    if table.provenance is not None:
        record["provenance"] = table.provenance
    return record


def table_from_dict(data: dict) -> CharacterizationTable:
    """Rebuild a :class:`CharacterizationTable` from its JSON record."""
    try:
        moments = np.stack(
            [np.asarray(data["moments"][name]) for name in ("mu", "sigma", "skew", "kurt")],
            axis=-1,
        )
        return CharacterizationTable(
            cell_name=data["cell"],
            pin=data["pin"],
            output_rising=data["edge"] == "rise",
            slews=np.asarray(data["index_1_slew_s"]),
            loads=np.asarray(data["index_2_load_f"]),
            moments=moments,
            quantiles=np.asarray(data["quantiles"]),
            out_slew=np.asarray(data["out_slew"]),
            n_samples=int(data["n_samples"]),
            provenance=data.get("provenance"),
        )
    except KeyError as exc:
        raise CharacterizationError(f"malformed table record: missing {exc}") from exc


def characterization_to_dict(
    charac: LibraryCharacterization, arrays: bool = False
) -> dict:
    """A library bundle as one plain-JSON document.

    Inverse of :func:`characterization_from_dict`; ``arrays=True``
    keeps ndarray leaves as in :func:`table_to_dict`.
    """
    doc = {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "tables": [table_to_dict(t, arrays=arrays) for t in charac.tables.values()],
    }
    if any(t.provenance is not None for t in charac.tables.values()):
        # Top-level marker so readers (and lint) need not scan every
        # table to learn that surrogate data is present.
        doc["surrogate"] = True
    if charac.quarantined:
        doc["quarantined"] = [q.as_dict() for q in charac.quarantined]
    return doc


def characterization_from_dict(doc: dict, source: str) -> LibraryCharacterization:
    """Inverse of :func:`characterization_to_dict`; errors name ``source``."""
    if doc.get("format") != FORMAT:
        raise CharacterizationError(
            f"{source} is not a {FORMAT} file (format={doc.get('format')!r})"
        )
    out = LibraryCharacterization()
    for record in doc["tables"]:
        out.put(table_from_dict(record))
    for record in doc.get("quarantined", ()):
        out.quarantined.append(QuarantinedArc.from_dict(record))
    return out


def save_library_characterization(
    charac: LibraryCharacterization, path: Union[str, Path]
) -> None:
    """Write all tables to disk (directories are created as needed).

    The format follows the suffix: a ``.rpk`` path stores the bundle as
    a memory-mappable binary pack
    (:func:`repro.pack.pack_library_characterization`); anything else
    writes the historical JSON document.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".rpk":
        from repro.pack import pack_library_characterization

        pack_library_characterization(charac, path)
        return
    with path.open("w") as fh:
        json.dump(characterization_to_dict(charac), fh)


def load_library_characterization(path: Union[str, Path]) -> LibraryCharacterization:
    """Read tables back from :func:`save_library_characterization` output.

    A ``.rpk`` path loads by mmap with zero-copy table grids (and the
    open :class:`~repro.pack.PackFile` on the bundle's ``pack``
    attribute, which lets shared-payload publication short-circuit to
    the file instead of copying into POSIX shared memory).
    """
    path = Path(path)
    if path.suffix == ".rpk":
        from repro.pack import load_library_characterization_pack

        return load_library_characterization_pack(path)
    with path.open() as fh:
        return characterization_from_dict(json.load(fh), source=str(path))
