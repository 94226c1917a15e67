"""Tests for window partitioning, window attention and the reconstruction net."""

import numpy as np
import pytest

from dyncs.autodiff import AutodiffError, Tensor
from dyncs.recon import (AttentionRecord, ReconConfig, export_attention,
                         init_recon_params, load_checkpoint, recon_forward,
                         save_checkpoint, window_partition, window_unpartition,
                         wmsa_forward)

from gradcheck import grad_check


def _small_cfg(**kw):
    base = dict(channels=4, n_blocks=1, heads=2, window=(2, 2, 2), mlp_ratio=2.0)
    base.update(kw)
    return ReconConfig(**base)


def _attn_params(rng, c, prefix="w"):
    return {
        f"{prefix}.wqkv": Tensor(rng.normal(size=(c, 3 * c)), requires_grad=True),
        f"{prefix}.bqkv": Tensor(np.zeros(3 * c), requires_grad=True),
        f"{prefix}.wo": Tensor(rng.normal(size=(c, c)), requires_grad=True),
        f"{prefix}.bo": Tensor(np.zeros(c), requires_grad=True),
    }


# -- window partition -------------------------------------------------------------

def test_full_volume_window_is_single_window():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 2, 4, 4)))
    tokens = window_partition(x, (2, 4, 4))
    assert tokens.shape == (1, 32, 3)


def test_partition_unpartition_is_bit_exact_identity():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(5, 4, 8, 8)))
    tokens = window_partition(x, (2, 4, 4))
    back = window_unpartition(tokens, (2, 4, 4), x.shape)
    assert np.array_equal(back.data, x.data)


def test_partition_counts_windows_and_tokens():
    x = Tensor(np.zeros((1, 4, 8, 8)))
    tokens = window_partition(x, (2, 4, 4))
    assert tokens.shape == (8, 32, 1)


def test_partition_rejects_non_divisible_volume():
    with pytest.raises(AutodiffError):
        window_partition(Tensor(np.zeros((1, 3, 8, 8))), (2, 4, 4))


# -- attention ---------------------------------------------------------------------

def test_single_token_window_attention_weight_is_one():
    rng = np.random.default_rng(2)
    c = 4
    params = _attn_params(rng, c)
    tokens = Tensor(rng.normal(size=(3, 1, c)))
    out, weights = wmsa_forward(tokens, params, heads=2, prefix="w", record=True)
    np.testing.assert_allclose(weights, 1.0, atol=1e-12)
    # with a single token the output is the projected V row of that token
    qkv = tokens.data @ params["w.wqkv"].data
    v = qkv[:, :, 2 * c:]
    expected = v @ params["w.wo"].data + params["w.bo"].data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_identical_tokens_give_uniform_attention():
    rng = np.random.default_rng(3)
    c, n = 4, 6
    params = _attn_params(rng, c)
    tokens = Tensor(np.broadcast_to(rng.normal(size=(1, 1, c)), (2, n, c)).copy())
    _, weights = wmsa_forward(tokens, params, heads=2, prefix="w", record=True)
    np.testing.assert_allclose(weights, 1.0 / n, atol=1e-12)


def test_two_token_window_matches_hand_computed_softmax():
    rng = np.random.default_rng(4)
    c = 2
    params = _attn_params(rng, c)
    tokens = rng.normal(size=(1, 2, c))
    out, weights = wmsa_forward(Tensor(tokens), params, heads=1, prefix="w",
                                record=True)
    qkv = tokens @ params["w.wqkv"].data
    q, k, v = qkv[0, :, :c], qkv[0, :, c:2 * c], qkv[0, :, 2 * c:]
    logits = q @ k.T / np.sqrt(c)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(weights[0, 0], attn, atol=1e-12)
    expected = attn @ v @ params["w.wo"].data + params["w.bo"].data
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(5)
    cfg = _small_cfg()
    params = init_recon_params(cfg, rng)
    x = Tensor(rng.normal(size=(2, 2, 4, 4)))
    _, records = recon_forward(x, cfg, params, record_attention=True)
    assert records, "expected attention to be recorded"
    for rec in records:
        np.testing.assert_allclose(rec.weights.sum(axis=-1), 1.0, atol=1e-9)


def test_token_permutation_within_window_permutes_output():
    rng = np.random.default_rng(6)
    c, n = 4, 8
    params = _attn_params(rng, c)
    tokens = rng.normal(size=(2, n, c))
    out, _ = wmsa_forward(Tensor(tokens), params, heads=2, prefix="w")
    perm = rng.permutation(n)
    out_p, _ = wmsa_forward(Tensor(tokens[:, perm]), params, heads=2, prefix="w")
    np.testing.assert_allclose(out_p.data, out.data[:, perm], atol=1e-12)


def test_no_cross_window_leakage():
    rng = np.random.default_rng(7)
    c, n = 4, 4
    params = _attn_params(rng, c)
    tokens = rng.normal(size=(3, n, c))
    out, _ = wmsa_forward(Tensor(tokens), params, heads=2, prefix="w")
    zeroed = tokens.copy()
    zeroed[1] = 0.0
    out_z, _ = wmsa_forward(Tensor(zeroed), params, heads=2, prefix="w")
    assert np.array_equal(out.data[0], out_z.data[0])
    assert np.array_equal(out.data[2], out_z.data[2])


# -- full network --------------------------------------------------------------------

def test_zeroed_output_layer_returns_bias():
    rng = np.random.default_rng(8)
    cfg = _small_cfg()
    params = init_recon_params(cfg, rng)
    params["conv_out.w"].data[:] = 0.0
    params["conv_out.b"].data[:] = 0.75
    x = Tensor(rng.normal(size=(2, 2, 4, 4)))
    out, _ = recon_forward(x, cfg, params)
    np.testing.assert_allclose(out.data, 0.75, atol=1e-12)


@pytest.mark.parametrize("t_frames", [4, 8, 16])
def test_output_shape_preserved_across_temporal_lengths(t_frames):
    rng = np.random.default_rng(9)
    cfg = _small_cfg()
    params = init_recon_params(cfg, rng)
    x = Tensor(rng.normal(size=(2, t_frames, 4, 4)))
    out, _ = recon_forward(x, cfg, params)
    assert out.shape == (t_frames, 4, 4)


def test_non_divisible_input_padded_and_cropped():
    rng = np.random.default_rng(10)
    cfg = _small_cfg()
    params = init_recon_params(cfg, rng)
    x = Tensor(rng.normal(size=(2, 3, 5, 7)))
    out, _ = recon_forward(x, cfg, params)
    assert out.shape == (3, 5, 7)


def test_parameter_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    cfg = _small_cfg()
    params = init_recon_params(cfg, rng)
    # the output layer initializes to zero, which would zero out every
    # upstream gradient; give it weight so the check is not vacuous
    params["conv_out.w"].data[:] = 0.1 * rng.normal(
        size=params["conv_out.w"].shape)
    x = Tensor(rng.normal(size=(2, 2, 4, 4)))
    target = rng.normal(size=(2, 4, 4))
    name = "block0.attn.wqkv"

    def f(slice_t):
        trial = dict(params)
        trial[name] = slice_t
        out, _ = recon_forward(x, cfg, trial)
        diff = out - Tensor(target)
        return (diff * diff).mean()

    assert grad_check(f, Tensor(params[name].data.copy()), h=1e-5) < 1e-4


def test_rejects_wrong_channel_count():
    cfg = _small_cfg()
    params = init_recon_params(cfg, np.random.default_rng(12))
    with pytest.raises(AutodiffError):
        recon_forward(Tensor(np.zeros((3, 2, 4, 4))), cfg, params)


# -- checkpoints -----------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    cfg = _small_cfg()
    params = init_recon_params(cfg, rng)
    save_checkpoint(tmp_path / "ckpt", cfg, params)
    cfg2, params2 = load_checkpoint(tmp_path / "ckpt")
    assert cfg2.to_dict() == cfg.to_dict()
    assert set(params2) == set(params)
    for name in params:
        assert np.array_equal(params2[name].data, params[name].data)


def test_checkpoint_truncation_detected(tmp_path):
    rng = np.random.default_rng(14)
    cfg = _small_cfg()
    save_checkpoint(tmp_path / "ckpt", cfg, init_recon_params(cfg, rng))
    blob = (tmp_path / "ckpt.bin").read_bytes()
    (tmp_path / "ckpt.bin").write_bytes(blob[:-8])
    with pytest.raises(AutodiffError):
        load_checkpoint(tmp_path / "ckpt")


# -- attention export --------------------------------------------------------------------

def test_export_sixteen_maps_for_16x16_region(tmp_path):
    rng = np.random.default_rng(15)
    cfg = _small_cfg(window=(1, 4, 4))
    params = init_recon_params(cfg, rng)
    x = Tensor(rng.normal(size=(2, 2, 16, 16)))
    _, records = recon_forward(x, cfg, params, record_attention=True)
    geometry = export_attention(records[0], (0, 0, 0, 16), tmp_path / "attn")
    assert geometry["n_maps"] == 16
    assert geometry["tokens"] == 16  # each map is 16 x 16


def test_exported_rows_sum_to_one(tmp_path):
    import csv
    rng = np.random.default_rng(16)
    cfg = _small_cfg(window=(1, 4, 4))
    params = init_recon_params(cfg, rng)
    x = Tensor(rng.normal(size=(2, 1, 8, 8)))
    _, records = recon_forward(x, cfg, params, record_attention=True)
    export_attention(records[0], (0, 0, 0, 8), tmp_path / "attn")
    with open(tmp_path / "attn.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows:
        assert sum(float(v) for v in row[5:]) == pytest.approx(1.0, abs=1e-9)


def test_export_region_out_of_bounds_rejected(tmp_path):
    weights = np.full((4, 1, 16, 16), 1.0 / 16)
    rec = AttentionRecord(weights=weights, window=(1, 4, 4), grid=(1, 2, 2))
    with pytest.raises(AutodiffError):
        export_attention(rec, (0, 0, 0, 12), tmp_path / "attn")


def test_config_invariants():
    with pytest.raises(AutodiffError):
        ReconConfig(channels=6, heads=4)
