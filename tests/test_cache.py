"""Content-hashed JSON cache: keys, hit/miss accounting, purge."""

from __future__ import annotations

import json

import pytest

from repro.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    JsonCache,
    content_key,
    default_cache_dir,
    version_salt,
)


class TestContentKey:
    def test_stable(self):
        payload = {"a": 1, "b": [1, 2, 3]}
        assert content_key(payload) == content_key(dict(payload))

    def test_key_order_irrelevant(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_any_payload_change_changes_key(self):
        base = {"tech": {"vdd": 0.6}, "n_samples": 250, "seed": 7}
        for mutated in (
            {**base, "n_samples": 251},
            {**base, "seed": 8},
            {**base, "tech": {"vdd": 0.7}},
            {**base, "extra": None},
        ):
            assert content_key(mutated) != content_key(base)

    def test_non_json_values_fall_back_to_repr(self):
        key = content_key({"grid": (1.0, 2.0)})
        assert len(key) == 16
        assert key == content_key({"grid": (1.0, 2.0)})


class TestVersionSalt:
    def test_salt_carries_the_package_version(self):
        import repro
        from repro.kernels import backend_identity
        from repro.pack import PACK_FORMAT_VERSION

        assert version_salt() == {
            "repro_version": repro.__version__,
            "kernel": backend_identity(),
            "pack_format": f"rpk-v{PACK_FORMAT_VERSION}",
        }

    def test_versioned_key_differs_from_unversioned(self):
        payload = {"n_samples": 100}
        assert content_key(payload) != content_key(payload, versioned=False)

    def test_version_change_invalidates_keys(self, monkeypatch):
        import repro

        payload = {"n_samples": 100}
        before = content_key(payload)
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        after = content_key(payload)
        assert before != after
        # Unversioned keys deliberately survive releases.
        assert content_key(payload, versioned=False) == content_key(
            payload, versioned=False
        )

    def test_unversioned_key_stable_across_version_change(self, monkeypatch):
        import repro

        payload = {"grid": (1.0, 2.0)}
        before = content_key(payload, versioned=False)
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        assert content_key(payload, versioned=False) == before


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"

    def test_fallback(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert str(default_cache_dir()) == DEFAULT_CACHE_DIR


class TestJsonCache:
    def test_miss_then_hit(self, tmp_path):
        cache = JsonCache(tmp_path)
        assert cache.get("arc", "abc") is None
        assert (cache.perf.cache_hits, cache.perf.cache_misses) == (0, 1)
        cache.put("arc", "abc", {"x": 1})
        assert cache.get("arc", "abc") == {"x": 1}
        assert (cache.perf.cache_hits, cache.perf.cache_misses) == (1, 1)

    def test_content_hash_miss_on_changed_payload(self, tmp_path):
        cache = JsonCache(tmp_path)
        k1 = content_key({"n_samples": 100})
        k2 = content_key({"n_samples": 200})
        cache.put("arc", k1, {"data": "for-100"})
        assert cache.get("arc", k2) is None
        assert cache.get("arc", k1) == {"data": "for-100"}

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = JsonCache(tmp_path)
        path = cache.put("arc", "k", {"ok": True})
        path.write_text("{not json")
        assert cache.get("arc", "k") is None

    def test_unlink_race_is_a_plain_miss_not_corruption(
        self, tmp_path, monkeypatch
    ):
        # A file vanishing between the existence check and the open (a
        # concurrent reader's corrupt-unlink, or a purge) must count as
        # a miss. The old code fed the FileNotFoundError to the corrupt
        # branch, inflating `corrupt` and re-attempting the unlink.
        from pathlib import Path

        cache = JsonCache(tmp_path)
        monkeypatch.setattr(Path, "exists", lambda self: True)
        assert cache.get("arc", "never-stored") is None
        assert cache.perf.cache_misses == 1
        assert cache.perf.cache_corrupt == 0

    def test_two_thread_get_vs_unlink_stress(self, tmp_path):
        # Readers racing a concurrent unlink+rewrite loop must only
        # ever see the full artifact or a miss — never an exception,
        # never a corrupt count (the file is always complete on disk).
        import threading

        cache = JsonCache(tmp_path)
        doc = {"payload": list(range(32))}
        cache.put("arc", "hot", doc)
        stop = threading.Event()
        seen: list = []
        errors: list = []

        def reader():
            try:
                while not stop.is_set():
                    got = cache.get("arc", "hot")
                    assert got is None or got == doc
                    seen.append(got is not None)
            except BaseException as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        def churner():
            try:
                for _ in range(200):
                    path = cache.path("arc", "hot")
                    try:
                        path.unlink()
                    except FileNotFoundError:
                        pass
                    cache.put("arc", "hot", doc)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=churner))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert cache.perf.cache_corrupt == 0
        assert any(seen)

    def test_put_is_atomic_no_tmp_left_behind(self, tmp_path):
        cache = JsonCache(tmp_path)
        cache.put("arc", "k", {"ok": True})
        assert not list(tmp_path.glob("*.tmp"))
        with cache.path("arc", "k").open() as fh:
            assert json.load(fh) == {"ok": True}

    def test_purge_by_kind(self, tmp_path):
        cache = JsonCache(tmp_path)
        cache.put("arc", "a", {})
        cache.put("arc", "b", {})
        cache.put("models", "c", {})
        assert cache.purge("arc") == 2
        assert cache.get("models", "c") == {}
        assert cache.purge() == 1
        assert cache.purge() == 0

    def test_purge_removes_packs_too(self, tmp_path):
        import numpy as np

        from repro.pack import write_pack

        cache = JsonCache(tmp_path)
        cache.put("arc", "a", {})
        cache.put("sta_compiled", "b", {})  # a JSON artifact of older versions
        for kind, key in (("sta_compiled", "c"), ("sta_compiled", "d"), ("arc", "e")):
            write_pack(cache.pack_path(kind, key), kind, {"x": np.ones(2)})
        assert cache.purge("sta_compiled") == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["arc_a.json", "arc_e.rpk"]
        assert cache.purge() == 2
        assert list(tmp_path.iterdir()) == []

    def test_sweep_removes_pack_writer_orphans(self, tmp_path, monkeypatch):
        import numpy as np

        import repro.pack as pack

        cache = JsonCache(tmp_path)
        path = cache.pack_path("sta_compiled", "k")

        # A writer that dies between its temp write and the rename
        # leaves the temp file behind.
        def crash(src, dst):
            raise OSError("writer crashed")

        monkeypatch.setattr(pack.os, "replace", crash)
        monkeypatch.setattr(pack.os, "unlink", lambda p: None)
        with pytest.raises(OSError, match="writer crashed"):
            pack.write_pack(path, "sta_compiled", {"x": np.ones(2)})
        monkeypatch.undo()
        orphans = list(tmp_path.glob("*.tmp"))
        assert len(orphans) == 1 and orphans[0].name.startswith(path.name)
        assert JsonCache(tmp_path).sweep_orphans() == 0  # swept on construction
        assert list(tmp_path.iterdir()) == []

    def test_put_pack_retries_a_swept_temp_file(self, tmp_path):
        cache = JsonCache(tmp_path)
        attempts = []

        def write(path):
            attempts.append(path)
            if len(attempts) == 1:
                raise FileNotFoundError("temp file swept before rename")
            path.write_bytes(b"pack")
            return path

        assert cache.put_pack("sta_compiled", "k", write) == cache.pack_path(
            "sta_compiled", "k"
        )
        assert len(attempts) == 2

    def test_purge_missing_dir(self, tmp_path):
        assert JsonCache(tmp_path / "never-created").purge() == 0
