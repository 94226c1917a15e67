"""Tests for phantom generation and the dataset file format."""

import hashlib
import json

import numpy as np
import pytest

from dyncs.data import (DataError, PhantomSpec, gen_dataset, gen_phantom,
                        load_dataset, partition_frames, save_dataset)


def test_zero_amplitude_gives_static_video():
    spec = PhantomSpec(grid=(16, 16), frames=5, amp_range=(0.0, 0.0), seed=3)
    vol = gen_phantom(spec)
    for t in range(1, 5):
        np.testing.assert_array_equal(vol[t], vol[0])


def test_same_seed_reproduces_bit_identical_volume():
    spec = PhantomSpec(grid=(16, 16), frames=4, seed=7)
    assert np.array_equal(gen_phantom(spec), gen_phantom(spec))


def test_integer_period_motion_closes_the_loop():
    spec = PhantomSpec(grid=(16, 16), frames=9, period=8, seed=1)
    vol = gen_phantom(spec)
    assert np.max(np.abs(vol[8] - vol[0])) < 1e-9


def test_values_within_unit_interval():
    vol = gen_phantom(PhantomSpec(grid=(16, 16), frames=4, noise_sigma=0.5, seed=2))
    assert vol.min() >= 0.0 and vol.max() <= 1.0


def test_distinct_seeds_give_distinct_volumes():
    vols = gen_dataset(3, grid=(16, 16), frames=2, seed=0)
    assert not np.array_equal(vols[0], vols[1])
    assert not np.array_equal(vols[1], vols[2])


def test_invalid_spec_rejected():
    with pytest.raises(DataError):
        PhantomSpec(grid=(2, 2))
    with pytest.raises(DataError):
        PhantomSpec(noise_sigma=-1.0)
    with pytest.raises(DataError):
        PhantomSpec(noise_sigma=float("nan"))
    with pytest.raises(DataError):
        gen_dataset(0)


# -- dataset I/O ------------------------------------------------------------------

def test_save_load_round_trip_bit_exact(tmp_path):
    vols = gen_dataset(4, grid=(8, 8), frames=3, seed=5)
    save_dataset(tmp_path / "ds", vols)
    back, _ = load_dataset(tmp_path / "ds")
    assert len(back) == 4
    for a, b in zip(vols, back):
        assert np.array_equal(a, b)


def test_truncated_blob_detected(tmp_path):
    vols = gen_dataset(1, grid=(8, 8), frames=2, seed=0)
    save_dataset(tmp_path / "ds", vols)
    blob = (tmp_path / "ds" / "vol_0.f64").read_bytes()
    (tmp_path / "ds" / "vol_0.f64").write_bytes(blob[:-16])
    with pytest.raises(DataError):
        load_dataset(tmp_path / "ds")


def test_volume_beyond_the_manifest_count_detected(tmp_path):
    ds = tmp_path / "ds"
    save_dataset(ds, gen_dataset(3, grid=(8, 8), frames=2, seed=2))
    manifest = json.loads((ds / "manifest.json").read_text())
    manifest["count"] = 2
    (ds / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="vol_2.f64"):
        load_dataset(ds)


def test_saving_fewer_volumes_over_a_dataset_removes_the_rest(tmp_path):
    ds = tmp_path / "ds"
    save_dataset(ds, gen_dataset(3, grid=(8, 8), frames=2, seed=2))
    save_dataset(ds, gen_dataset(1, grid=(8, 8), frames=2, seed=3))
    assert len(load_dataset(ds)[0]) == 1 and not (ds / "vol_1.f64").exists()


def test_missing_manifest_detected(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path)


def test_arbitrary_count_supported(tmp_path):
    vols = gen_dataset(16, grid=(8, 8), frames=2, seed=9)
    save_dataset(tmp_path / "ds", vols)
    assert len(load_dataset(tmp_path / "ds")[0]) == 16


def test_digest_is_sha256_of_the_manifest_then_each_volume_file(tmp_path):
    ds = tmp_path / "ds"
    save_dataset(ds, gen_dataset(2, grid=(8, 8), frames=2, seed=1))
    files = b"".join((ds / name).read_bytes()
                     for name in ("manifest.json", "vol_0.f64", "vol_1.f64"))
    _, digest = load_dataset(ds)
    assert digest == hashlib.sha256(files).hexdigest()
    blob = bytearray((ds / "vol_1.f64").read_bytes())
    blob[3] ^= 1  # a low mantissa bit: the value stays finite
    (ds / "vol_1.f64").write_bytes(bytes(blob))
    assert load_dataset(ds)[1] != digest


def test_empty_save_rejected(tmp_path):
    with pytest.raises(DataError):
        save_dataset(tmp_path / "ds", [])


# -- partitioning ------------------------------------------------------------------

def test_partition_and_concat_reproduces_volume():
    vol = gen_phantom(PhantomSpec(grid=(8, 8), frames=12, seed=4))
    units = partition_frames(vol, 4)
    assert len(units) == 3
    np.testing.assert_array_equal(np.concatenate(units, axis=0), vol)


def test_partition_pads_last_unit_with_zeros():
    vol = np.ones((7, 4, 4))
    units = partition_frames(vol, 4)
    assert len(units) == 2
    np.testing.assert_array_equal(units[1][:3], 1.0)
    np.testing.assert_array_equal(units[1][3:], 0.0)


def test_partition_can_drop_partial_tail():
    vol = np.ones((7, 4, 4))
    units = partition_frames(vol, 4, pad=False)
    assert len(units) == 1 and units[0].shape[0] == 4
