"""Pack container format: round-trip, alignment, zero-copy, caching."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.cache import JsonCache, version_salt
from repro.core.sta_compiled import (
    COMPILE_CACHE_KIND,
    CompiledSTA,
    Scenario,
    compile_design,
    design_cache_key,
)
from repro.errors import PackError
from repro.journal import RunJournal, read_journal
from repro.pack import (
    COMPILED_DESIGN_KIND,
    PACK_FORMAT_VERSION,
    PackFile,
    SEGMENT_ALIGN,
    delist_document,
    load_compiled_design,
    load_library_characterization_pack,
    pack_compiled_design,
    pack_library_characterization,
    write_pack,
)
from repro.perf import PerfCounters
from repro.units import PS


def sample_doc() -> dict:
    """A document exercising nesting, dtypes, shapes and scalars."""
    return {
        "label": "unit",
        "alpha": np.linspace(0.0, 1.0, 37),
        "nested": {
            "idx": np.arange(12, dtype=np.int64).reshape(3, 4),
            "flags": np.array([True, False, True]),
        },
        "rows": [np.zeros((2, 2)), {"deep": np.full(5, 2.5)}],
        "scalar": 42,
        "none": None,
    }


SCENARIOS = [
    Scenario(input_slew=s * PS, launch_rising=e)
    for s in (10.0, 40.0)
    for e in (True, False)
]


class TestRoundTrip:
    def test_document_round_trips_exactly(self, tmp_path):
        path = tmp_path / "unit.rpk"
        write_pack(path, "unit", sample_doc(), meta={"who": "test"})
        pack = PackFile.open(path)
        assert pack.kind == "unit"
        assert pack.version == PACK_FORMAT_VERSION
        assert pack.meta == {"who": "test"}
        assert delist_document(pack.document()) == delist_document(sample_doc())

    def test_arrays_keep_dtype_and_shape(self, tmp_path):
        path = tmp_path / "unit.rpk"
        write_pack(path, "unit", sample_doc())
        doc = PackFile.open(path).document()
        assert doc["alpha"].dtype == np.float64
        assert doc["nested"]["idx"].dtype == np.int64
        assert doc["nested"]["idx"].shape == (3, 4)
        assert doc["nested"]["flags"].dtype == np.bool_
        np.testing.assert_array_equal(doc["rows"][0], np.zeros((2, 2)))

    def test_segments_are_64_byte_aligned(self, tmp_path):
        path = tmp_path / "unit.rpk"
        write_pack(path, "unit", sample_doc())
        pack = PackFile.open(path)
        assert pack._data_off % SEGMENT_ALIGN == 0
        for record in pack.segments:
            assert record["offset"] % SEGMENT_ALIGN == 0

    def test_views_are_read_only_and_zero_copy(self, tmp_path):
        path = tmp_path / "unit.rpk"
        write_pack(path, "unit", sample_doc())
        arr = PackFile.open(path).array("alpha")
        assert arr.flags.writeable is False
        assert arr.flags.owndata is False
        with pytest.raises(ValueError):
            arr[0] = 99.0

    def test_views_outlive_the_packfile(self, tmp_path):
        path = tmp_path / "unit.rpk"
        write_pack(path, "unit", sample_doc())
        pack = PackFile.open(path)
        arr = pack.array("nested.idx")
        pack.close()
        del pack
        gc.collect()
        assert arr.sum() == np.arange(12).sum()

    def test_array_lookup_by_name_and_index(self, tmp_path):
        path = tmp_path / "unit.rpk"
        write_pack(path, "unit", sample_doc())
        pack = PackFile.open(path)
        np.testing.assert_array_equal(pack.array("alpha"), pack.array(0))
        with pytest.raises(PackError, match="no segment named"):
            pack.array("never-stored")

    def test_identity_is_stable_and_content_sensitive(self, tmp_path):
        a = tmp_path / "a.rpk"
        b = tmp_path / "b.rpk"
        c = tmp_path / "c.rpk"
        write_pack(a, "unit", sample_doc())
        write_pack(b, "unit", sample_doc())
        changed = sample_doc()
        changed["alpha"] = changed["alpha"] + 1.0
        write_pack(c, "unit", changed)
        ia = PackFile.open(a).identity()
        assert ia == PackFile.open(b).identity()
        assert ia != PackFile.open(c).identity()

    def test_trailing_zero_length_segment_round_trips(self, tmp_path):
        # Regression: a trailing empty segment seeks past EOF without
        # writing; the writer must still pin the file to its recorded
        # length or every subsequent open fails the truncation check.
        path = tmp_path / "tail.rpk"
        doc = {"body": np.ones(3), "tail": np.zeros(0)}
        write_pack(path, "unit", doc)
        loaded = PackFile.open(path).document()
        assert loaded["tail"].size == 0
        np.testing.assert_array_equal(loaded["body"], np.ones(3))

    def test_empty_document_round_trips(self, tmp_path):
        path = tmp_path / "empty.rpk"
        write_pack(path, "unit", {"only": "scalars", "n": 3})
        pack = PackFile.open(path)
        assert pack.segments == []
        assert pack.document() == {"only": "scalars", "n": 3}

    def test_unsupported_dtype_raises(self, tmp_path):
        with pytest.raises(PackError, match="unsupported dtype") as err:
            write_pack(tmp_path / "x.rpk", "unit", {"s": np.array(["a", "b"])})
        assert err.value.code == "dtype"

    def test_segment_placeholder_collision_raises(self, tmp_path):
        doc = {"evil": {"__ndarray_segment__": 1}}
        with pytest.raises(PackError, match="collides") as err:
            write_pack(tmp_path / "x.rpk", "unit", doc)
        assert err.value.code == "document"

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        write_pack(tmp_path / "unit.rpk", "unit", sample_doc())
        assert not list(tmp_path.glob("*.tmp"))

    def test_perf_counters_and_journal_events(self, tmp_path):
        journal = RunJournal(tmp_path / "pack.jsonl")
        perf = PerfCounters(journal=journal)
        path = tmp_path / "unit.rpk"
        write_pack(path, "unit", sample_doc(), perf=perf)
        PackFile.open(path, perf=perf)
        journal.close()
        assert perf.pack_writes == 1
        assert perf.pack_loads == 1
        assert perf.pack_verifies == 1
        events = [e["event"] for e in read_journal(journal.path)]
        assert events == ["pack_write", "pack_verify", "pack_load"]


class TestCompiledDesignPack:
    def test_round_trip_is_bit_identical(
        self, adder_circuit, mini_models, tmp_path
    ):
        design = compile_design(adder_circuit, mini_models)
        key = design_cache_key(adder_circuit, mini_models)
        path = tmp_path / "adder3.rpk"
        pack_compiled_design(design, path, design_key=key)
        loaded = load_compiled_design(path, expected_key=key)

        direct = CompiledSTA(adder_circuit, mini_models, design=design)
        packed = CompiledSTA(adder_circuit, mini_models, design=loaded)
        for a, b in zip(
            direct.analyze_batch(SCENARIOS), packed.analyze_batch(SCENARIOS)
        ):
            assert a.critical_delay == b.critical_delay
            for level in (-3, -1, 1, 3):
                assert a.critical_path.total(level) == b.critical_path.total(level)

    def test_loaded_design_is_mmap_backed(
        self, adder_circuit, mini_models, tmp_path
    ):
        design = compile_design(adder_circuit, mini_models)
        path = tmp_path / "adder3.rpk"
        pack_compiled_design(design, path)
        loaded = load_compiled_design(path)
        assert loaded.pack is not None
        assert loaded.pack.path == path
        # The big tensors must be views into the mapping, not copies.
        assert loaded.arcs.mu_coef.flags.owndata is False
        assert loaded.arcs.mu_coef.flags.writeable is False
        assert loaded.net_load.flags.owndata is False
        np.testing.assert_array_equal(loaded.net_load, design.net_load)

    def test_meta_records_the_design_identity(
        self, adder_circuit, mini_models, tmp_path
    ):
        design = compile_design(adder_circuit, mini_models)
        key = design_cache_key(adder_circuit, mini_models)
        path = tmp_path / "adder3.rpk"
        pack_compiled_design(design, path, design_key=key)
        pack = PackFile.open(path)
        assert pack.kind == COMPILED_DESIGN_KIND
        assert pack.meta["design_cache_key"] == key
        assert pack.meta["circuit_name"] == "adder3"
        assert pack.meta["calibration_digest"] == design.calibration_digest

    def test_wrong_expected_key_is_stale(
        self, adder_circuit, mini_models, tmp_path
    ):
        design = compile_design(adder_circuit, mini_models)
        path = tmp_path / "adder3.rpk"
        pack_compiled_design(design, path, design_key="real-key")
        with pytest.raises(PackError, match="stale") as err:
            load_compiled_design(path, expected_key="other-key")
        assert err.value.code == "stale"

    def test_wrong_kind_is_refused(self, tmp_path):
        path = tmp_path / "notdesign.rpk"
        write_pack(path, "unit", sample_doc())
        with pytest.raises(PackError, match="not a compiled design") as err:
            load_compiled_design(path)
        assert err.value.code == "kind"


class TestLibraryPack:
    def test_round_trip_preserves_tables(self, mini_charac, tmp_path):
        from repro.cells.liberty import table_to_dict

        path = tmp_path / "library.rpk"
        pack_library_characterization(mini_charac, path)
        loaded = load_library_characterization_pack(path)
        assert set(loaded.tables) == set(mini_charac.tables)
        for arc_key, table in mini_charac.tables.items():
            assert table_to_dict(loaded.tables[arc_key]) == table_to_dict(table)
        assert loaded.pack is not None

    def test_quarantine_records_survive(self, mini_charac, tmp_path):
        path = tmp_path / "library.rpk"
        pack_library_characterization(mini_charac, path)
        loaded = load_library_characterization_pack(path)
        assert [q.as_dict() for q in loaded.quarantined] == [
            q.as_dict() for q in mini_charac.quarantined
        ]

    def test_save_load_dispatch_on_rpk_suffix(self, mini_charac, tmp_path):
        from repro.cells.liberty import (
            load_library_characterization,
            save_library_characterization,
        )

        path = tmp_path / "library.rpk"
        save_library_characterization(mini_charac, path)
        loaded = load_library_characterization(path)
        assert set(loaded.tables) == set(mini_charac.tables)
        assert loaded.pack is not None


class TestPackCache:
    """The compile cache: ``compile_design`` stores packs in a JsonCache dir."""

    def test_miss_then_hit(self, adder_circuit, mini_models, tmp_path):
        cache = JsonCache(tmp_path)
        first = compile_design(adder_circuit, mini_models, cache=cache)
        assert (cache.perf.cache_hits, cache.perf.cache_misses) == (0, 1)
        second = compile_design(adder_circuit, mini_models, cache=cache)
        assert (cache.perf.cache_hits, cache.perf.cache_misses) == (1, 1)
        assert isinstance(second.pack, PackFile)
        assert delist_document(second.to_dict()) == delist_document(
            first.to_dict()
        )

    def test_paths_use_the_rpk_suffix(self, adder_circuit, mini_models, tmp_path):
        cache = JsonCache(tmp_path)
        design = compile_design(adder_circuit, mini_models, cache=cache)
        path = cache.pack_path(COMPILE_CACHE_KIND, design.cache_key)
        assert path.suffix == ".rpk"
        assert path.name == f"{COMPILE_CACHE_KIND}_{design.cache_key}.rpk"
        assert path.exists()

    def test_corrupt_pack_is_unlinked_miss(self, tmp_path):
        perf = PerfCounters()
        cache = JsonCache(tmp_path, perf=perf)
        path = write_pack(cache.pack_path("arc", "k"), "arc", sample_doc())
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.get_pack("arc", "k", PackFile.open) is None
        assert (cache.perf.cache_corrupt, cache.perf.cache_misses) == (1, 1)
        assert perf.cache_corrupt == 1
        assert not path.exists()

    def test_vanished_pack_is_a_plain_miss(self, tmp_path):
        cache = JsonCache(tmp_path)
        path = write_pack(cache.pack_path("arc", "k"), "arc", sample_doc())

        def raced(p):
            p.unlink()  # a concurrent purge between exists() and open
            return PackFile.open(p)

        assert cache.get_pack("arc", "k", raced) is None
        assert (cache.perf.cache_corrupt, cache.perf.cache_misses) == (0, 1)
        assert not path.exists()

    def test_put_strips_the_pack_handle(self, adder_circuit, mini_models, tmp_path):
        cache = JsonCache(tmp_path)
        compile_design(adder_circuit, mini_models, cache=cache)
        mapped = compile_design(adder_circuit, mini_models, cache=cache)
        assert mapped.pack is not None
        # Re-storing a mapped design writes its content, not the handle.
        doc = mapped.to_dict()
        assert "__pack__" not in doc and "pack" not in doc
        again = tmp_path / "again.rpk"
        pack_compiled_design(mapped, again, design_key=mapped.cache_key)
        restored = load_compiled_design(again, expected_key=mapped.cache_key)
        assert delist_document(restored.to_dict()) == delist_document(doc)

    def test_purge_removes_packs(self, adder_circuit, mini_models, tmp_path):
        cache = JsonCache(tmp_path)
        compile_design(adder_circuit, mini_models, cache=cache)
        write_pack(cache.pack_path("arc", "b"), "arc", {"x": np.ones(2)})
        assert cache.purge(COMPILE_CACHE_KIND) == 1
        assert cache.purge() == 1
        assert list(tmp_path.iterdir()) == []

    def test_compile_design_round_trips_through_pack_cache(
        self, adder_circuit, mini_models, tmp_path
    ):
        cache = JsonCache(tmp_path)
        first = compile_design(adder_circuit, mini_models, cache=cache)
        assert first.pack is None  # built fresh, then stored
        second = compile_design(adder_circuit, mini_models, cache=cache)
        assert second.pack is not None  # served zero-copy from the pack
        a = CompiledSTA(adder_circuit, mini_models, design=first)
        b = CompiledSTA(adder_circuit, mini_models, design=second)
        for ra, rb in zip(
            a.analyze_batch(SCENARIOS), b.analyze_batch(SCENARIOS)
        ):
            assert ra.critical_delay == rb.critical_delay


class TestVersionSaltCoupling:
    def test_salt_carries_the_pack_format(self):
        assert version_salt()["pack_format"] == f"rpk-v{PACK_FORMAT_VERSION}"
