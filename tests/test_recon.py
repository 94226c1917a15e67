"""Tests for window partitioning, window attention and the reconstruction net."""

import tracemalloc

import numpy as np
import pytest

from dyncs import autodiff as ad
from dyncs.autodiff import AutodiffError, Tensor
from dyncs.recon import (BLOCK_PARAMS, AttentionRecord, ReconConfig, _block_forward,
                         export_attention, init_recon_params, load_checkpoint,
                         recon_forward, save_checkpoint, window_partition,
                         window_unpartition, wmsa_forward)

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
    x = np.random.default_rng(0).normal(size=(3, 2, 4, 4))
    tokens = window_partition(x, (2, 4, 4))
    assert tokens.shape == (1, 32, 3)


def test_partition_unpartition_is_bit_exact_identity():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 4, 8, 8))
    tokens = window_partition(x, (2, 4, 4))
    back = window_unpartition(tokens, (2, 4, 4), x.shape)
    assert np.array_equal(back, x)


def test_partition_counts_windows_and_tokens():
    tokens = window_partition(np.zeros((1, 4, 8, 8)), (2, 4, 4))
    assert tokens.shape == (8, 32, 1)


def test_partition_rejects_non_divisible_volume():
    with pytest.raises(AutodiffError):
        window_partition(np.zeros((1, 3, 8, 8)), (2, 4, 4))


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


def _perturbed_params(cfg, rng):
    """Initial parameters moved off their special values: the output layer
    initializes to zero, which would zero out every upstream gradient, and
    the unit gains and zero biases are symmetric points."""
    params = init_recon_params(cfg, rng)
    for p in params.values():
        p.data = p.data + 0.1 * rng.normal(size=p.shape)
    return params


def test_parameter_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    cfg = _small_cfg(n_blocks=2, window=(2, 4, 4))
    params = _perturbed_params(cfg, rng)
    # 3x6x7 pads to 4x8x8, so pad tokens pass through both blocks
    x = Tensor(rng.normal(size=(2, 3, 6, 7)))
    target = Tensor(rng.normal(size=(3, 6, 7)))

    def loss(trial, inp):
        out, _ = recon_forward(inp, cfg, trial)
        diff = out - target
        return (diff * diff).mean()

    c = cfg.channels
    for name, p in params.items():
        if name.endswith("bqkv"):
            # the key bias shifts each softmax row by a constant, so its
            # gradient is zero up to rounding; probe the query and value biases
            key_bias = Tensor(p.data[c:2 * c])
            err = grad_check(lambda t: loss({**params, name: ad.concat(
                [t[:c], key_bias, t[c:]])}, x), Tensor(np.delete(p.data, np.s_[c:2 * c])))
        else:
            err = grad_check(lambda t: loss({**params, name: t}, x), Tensor(p.data))
        assert err < 1e-4, name
    assert grad_check(lambda t: loss(params, t), x) < 1e-4


def test_constant_input_gives_the_same_parameter_gradients():
    rng = np.random.default_rng(20)
    cfg = _small_cfg(n_blocks=2, window=(2, 4, 4))
    params = _perturbed_params(cfg, rng)
    data = rng.normal(size=(2, 3, 10, 14))
    grads = []
    for requires_grad in (True, False):
        for p in params.values():
            p.grad = None
        x = Tensor(data, requires_grad=requires_grad)
        out, _ = recon_forward(x, cfg, params)
        (out * out).sum().backward()
        assert (x.grad is not None) == requires_grad
        grads.append({name: p.grad for name, p in params.items()})
    for name in params:
        assert np.array_equal(grads[0][name], grads[1][name]), name


def test_pad_keys_get_no_attention():
    rng = np.random.default_rng(21)
    cfg = _small_cfg(channels=8, window=(2, 4, 4))
    params = _perturbed_params(cfg, rng)
    # 3 frames pad to 4: the last temporal slab's windows hold a pad frame
    x = Tensor(rng.normal(size=(2, 3, 8, 8)))
    _, (record,) = recon_forward(x, cfg, params, record_attention=True)
    is_pad = window_partition(np.pad(np.zeros((1, 3, 8, 8)), [(0, 0), (0, 1), (0, 0), (0, 0)],
                                     constant_values=1.0), cfg.window)[:, :, 0] > 0
    assert is_pad.any()
    for w in range(record.weights.shape[0]):
        assert np.all(record.weights[w][:, :, is_pad[w]] == 0.0)
    np.testing.assert_allclose(record.weights.sum(axis=-1), 1.0, atol=1e-12)


def _block_reference(x, p, heads):
    """The transformer block composed in plain numpy, one head at a time."""
    def layer_norm(a, g, b):
        mu = a.mean(axis=-1, keepdims=True)
        sd = np.sqrt(((a - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
        return (a - mu) / sd * g + b

    c = x.shape[-1]
    d = c // heads
    qkv = layer_norm(x, p["ln1.g"], p["ln1.b"]) @ p["attn.wqkv"] + p["attn.bqkv"]
    heads_out = np.zeros_like(x)
    for h in range(heads):
        q, k, v = (qkv[..., j * c + h * d:j * c + (h + 1) * d] for j in range(3))
        logits = q @ np.swapaxes(k, -1, -2) / np.sqrt(d)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        heads_out[..., h * d:(h + 1) * d] = e / e.sum(axis=-1, keepdims=True) @ v
    y = x + heads_out @ p["attn.wo"] + p["attn.bo"]
    hidden = np.maximum(layer_norm(y, p["ln2.g"], p["ln2.b"]) @ p["mlp.w1"] + p["mlp.b1"], 0.0)
    return y + hidden @ p["mlp.w2"] + p["mlp.b2"]


def test_transformer_block_matches_composed_reference():
    rng = np.random.default_rng(17)
    cfg = _small_cfg(channels=8, heads=4, mlp_ratio=1.5)
    params = init_recon_params(cfg, rng)
    for name in BLOCK_PARAMS:
        params[f"block0.{name}"].data += 0.1 * rng.normal(size=params[f"block0.{name}"].shape)
    tokens = rng.normal(size=(5, 16, 8))
    out, acts = _block_forward(tokens, [params[f"block0.{n}"].data for n in BLOCK_PARAMS], 4)
    expected = _block_reference(tokens, {n: params[f"block0.{n}"].data for n in BLOCK_PARAMS}, 4)
    assert np.max(np.abs(out - expected)) < 1e-14 * np.max(np.abs(expected))
    weights = acts[2][3]
    assert weights.shape == (5, 4, 16, 16)
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)


def test_recording_attention_leaves_output_unchanged():
    rng = np.random.default_rng(18)
    cfg = _small_cfg(n_blocks=2)
    params = init_recon_params(cfg, rng)
    params["conv_out.w"].data[:] = rng.normal(size=params["conv_out.w"].shape)
    x = Tensor(rng.normal(size=(2, 3, 5, 7)))
    plain, none = recon_forward(x, cfg, params)
    recorded, records = recon_forward(x, cfg, params, record_attention=True)
    assert none == [] and len(records) == 2
    assert np.array_equal(plain.data, recorded.data)


def test_recon_graph_keeps_no_block_activations():
    rng = np.random.default_rng(19)
    cfg = ReconConfig()  # the CLI default, c16/b2
    params = init_recon_params(cfg, rng)
    x = Tensor(rng.normal(size=(2, 4, 32, 32)))
    target = Tensor(rng.normal(size=(4, 32, 32)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out, _ = recon_forward(x, cfg, params)
        diff = out - target
        loss = (diff * diff).mean()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the network is one node over the input and every parameter
    assert out._prev == (x,) + tuple(params[n] for n in sorted(params))
    # ~2.7 MB of block inputs and conv inputs; a graph that keeps every
    # attention and MLP activation holds ~55 MB
    assert held < 20e6
    loss.backward()
    assert all(p.grad is not None for p in params.values())


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
    for bad in (dict(channels=6, heads=4), dict(heads=0), dict(channels=0),
                dict(n_blocks=-1), dict(window=(2, 4)), dict(window=(0, 2, 2))):
        with pytest.raises(AutodiffError):
            ReconConfig(**bad)
