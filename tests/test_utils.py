"""Utilities: seeding, serialization, logging."""

from __future__ import annotations

import logging
import sys
import threading

import numpy as np
import pytest

from repro.utils import SeedSequence, get_logger, load_npz, new_rng, save_npz
from repro.utils.serialization import load_npz_metadata


class TestNewRng:
    def test_int_seed_deterministic(self):
        assert new_rng(5).random() == new_rng(5).random()

    def test_none_uses_default_seed(self):
        assert new_rng(None).random() == new_rng(None).random()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert new_rng(gen) is gen


class TestSeedSequence:
    def test_child_seed_stable(self):
        seeds = SeedSequence(42)
        assert seeds.child_seed("train", 1.0, 48) == seeds.child_seed("train", 1.0, 48)

    def test_child_seed_distinguishes_keys(self):
        seeds = SeedSequence(42)
        assert seeds.child_seed("train", 1.0, 48) != seeds.child_seed("train", 1.0, 56)
        assert seeds.child_seed("train", 1.0, 48) != seeds.child_seed("attack", 1.0, 48)

    def test_child_seed_depends_on_root(self):
        assert SeedSequence(1).child_seed("x") != SeedSequence(2).child_seed("x")

    def test_float_keys_stable(self):
        seeds = SeedSequence(0)
        assert seeds.child_seed(0.25) == seeds.child_seed(0.25)
        assert seeds.child_seed(0.25) != seeds.child_seed(0.75)

    def test_rng_for(self):
        seeds = SeedSequence(0)
        assert seeds.rng_for("a").random() == seeds.rng_for("a").random()

    def test_seed_property(self):
        assert SeedSequence(7).seed == 7

    def test_tuple_key_normalization(self):
        seeds = SeedSequence(0)
        assert seeds.child_seed(("a", 1.5)) == seeds.child_seed(("a", 1.5))


class TestNpz:
    def test_roundtrip_with_metadata(self, tmp_path):
        arrays = {"w": np.arange(6).reshape(2, 3).astype(np.float32)}
        path = save_npz(tmp_path / "x.npz", arrays, {"epoch": 3})
        loaded, meta = load_npz(path)
        np.testing.assert_array_equal(loaded["w"], arrays["w"])
        assert meta == {"epoch": 3}

    def test_roundtrip_without_metadata(self, tmp_path):
        path = save_npz(tmp_path / "y.npz", {"a": np.ones(2)})
        loaded, meta = load_npz(path)
        assert meta is None
        assert set(loaded) == {"a"}

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_npz(tmp_path / "z.npz", {"__repro_metadata__": np.ones(1)})

    def test_creates_parent_dirs(self, tmp_path):
        path = save_npz(tmp_path / "deep" / "nested" / "f.npz", {"a": np.ones(1)})
        assert path.exists()

    @pytest.mark.parametrize("reader", ["load_npz", "load_npz_metadata"])
    def test_threads_reading_archives_all_succeed(self, tmp_path, reader):
        # Queue workers may be threads of one process, all reading weight
        # archives.  np.load's header parser is not safe to run from
        # several threads at once on every CPython (it raised SystemError
        # there), so a failed read would escape the cache's miss handling.
        read = {"load_npz": load_npz, "load_npz_metadata": load_npz_metadata}[reader]
        threads, calls = 4, 100
        paths = [
            save_npz(
                tmp_path / f"w{writer}.npz",
                {f"layer{i}.weight": np.full((3, 4), writer + i, dtype=np.float32)
                 for i in range(8)},
                {"clean_accuracy": 0.5, "params": {"v_th": 1.0 + writer}},
            )
            for writer in range(threads)
        ]
        expected = [read(path) for path in paths]
        errors: list[BaseException] = []
        start = threading.Barrier(threads, timeout=10.0)

        def reread(writer: int) -> None:
            start.wait()
            for _ in range(calls):
                try:
                    loaded = read(paths[writer])
                    if reader == "load_npz":
                        same = loaded[1] == expected[writer][1] and all(
                            np.array_equal(loaded[0][k], v)
                            for k, v in expected[writer][0].items()
                        )
                    else:
                        same = loaded == expected[writer]
                    if not same:
                        raise AssertionError("read back different contents")
                except Exception as error:
                    errors.append(error)

        workers = [threading.Thread(target=reread, args=(w,)) for w in range(threads)]
        switch = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert not errors, (
            f"{len(errors)} of {threads * calls} reads failed, first: {errors[0]!r}"
        )


class TestLogging:
    def test_namespaced_logger(self):
        logger = get_logger("robustness")
        assert logger.name == "repro.robustness"

    def test_full_name_passthrough(self):
        assert get_logger("repro.custom").name == "repro.custom"

    def test_parent_has_handler(self):
        get_logger("anything")
        assert logging.getLogger("repro").handlers
