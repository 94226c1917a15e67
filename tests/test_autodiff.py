"""Tests for the reverse-mode autodiff core and the Adam optimizer."""

import tracemalloc

import numpy as np
import pytest

from dyncs import autodiff as ad
from dyncs.autodiff import AdamState, AutodiffError, Tensor, adam_step
from dyncs.recon import ReconConfig, _layer_norm, _softmax, init_recon_params, recon_forward

from gradcheck import grad_check


def test_square_gradient():
    x = Tensor(np.array(3.0), requires_grad=True)
    (x * x).backward()
    assert x.grad == pytest.approx(6.0, abs=1e-12)


def test_sum_plus_constant_gradient_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    (x.sum() + 5.0).backward()
    np.testing.assert_allclose(x.grad, np.ones((2, 3)))


def test_grad_check_quadratic_is_tight():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(5,)))
    assert grad_check(lambda t: (t * t).sum(), x) < 1e-8


def test_grad_check_constant_function_is_zero():
    x = Tensor(np.ones(4))
    assert grad_check(lambda t: Tensor(np.array(2.0), requires_grad=True) + (t * 0.0).sum(), x) == 0.0


def test_grad_check_rejects_bad_step():
    with pytest.raises(AutodiffError):
        grad_check(lambda t: t.sum(), Tensor(np.ones(2)), h=1.0)


@pytest.mark.parametrize("name,f,shape", [
    ("mul", lambda t: (t * t * 0.5).sum(), (3, 4)),
    ("concat", lambda t: (ad.concat([t, t * t], axis=1) * 0.5).sum(), (3, 4)),
    ("sub", lambda t: (t - t * t - 1.0).sum(), (3, 4)),
    ("getitem", lambda t: (t[1:, :2] * 3.0).sum(), (3, 4)),
    ("sum", lambda t: (t.sum(axis=0, keepdims=True) * t).sum(), (3, 4)),
    ("abs", lambda t: t.abs().sum(), (3, 4)),
    ("relu", lambda t: t.relu().sum(), (3, 4)),
    ("mean", lambda t: t.mean(axis=1).sum(), (3, 4)),
])
def test_op_gradients_match_finite_differences(name, f, shape):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = Tensor(rng.normal(size=shape) + 0.1)  # offset keeps abs/relu off kinks
    assert grad_check(f, x) < 1e-5


@pytest.mark.parametrize("idx", [[0, 2], np.array([1]), np.array([True, False, True]),
                                 (slice(None), [0, 1]), True])
def test_getitem_rejects_advanced_indices(idx):
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    with pytest.raises(AutodiffError, match="basic indices"):
        x[idx]


def test_concat_gradients_split_correctly():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((4, 3)), requires_grad=True)
    (ad.concat([a, b], axis=0) * np.arange(18.0).reshape(6, 3)).sum().backward()
    np.testing.assert_allclose(a.grad, np.arange(6.0).reshape(2, 3))
    np.testing.assert_allclose(b.grad, np.arange(6.0, 18.0).reshape(4, 3))


def test_backward_linearity_over_losses():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(3, 3))

    x = Tensor(base.copy(), requires_grad=True)
    ((x * x).sum() + (x * 3.0).sum()).backward()
    joint = x.grad.copy()

    y = Tensor(base.copy(), requires_grad=True)
    (y * y).sum().backward()
    (y * 3.0).sum().backward()  # grads accumulate across graphs
    np.testing.assert_allclose(joint, y.grad, atol=1e-12)


def test_graph_consumed_after_backward():
    x = Tensor(np.ones(3), requires_grad=True)
    out = (x * x).sum()
    out.backward()
    with pytest.raises(AutodiffError):
        out.backward()


def test_non_finite_input_rejected():
    with pytest.raises(AutodiffError):
        Tensor(np.array([1.0, np.nan]))


def test_seed_shape_mismatch_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(AutodiffError):
        (x * 2.0).backward(seed=np.ones(4))


# -- softmax / layer_norm values (the numpy helpers of recon's block node) -----

def test_softmax_constant_row_uniform():
    out = _softmax(np.full((2, 5), 3.0))
    np.testing.assert_allclose(out, 1.0 / 5.0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 6))
    a = _softmax(x)
    b = _softmax(x + 17.5)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_matches_direct_formula():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8,))
    expected = np.exp(x - x.max())
    expected /= expected.sum()
    np.testing.assert_allclose(_softmax(x[None])[0], expected, atol=1e-12)


def test_layer_norm_identity_on_normalized_row():
    x = np.array([[-1.0, 1.0, -1.0, 1.0]])
    g = np.ones(4)
    b = np.zeros(4)
    out = _layer_norm(x, g, b)[0]
    np.testing.assert_allclose(out, x, atol=1e-4)


def test_layer_norm_constant_row_returns_beta():
    x = np.full((2, 4), 7.0)
    beta = np.array([1.0, 2.0, 3.0, 4.0])
    out = _layer_norm(x, np.ones(4), beta)[0]
    np.testing.assert_allclose(out, np.broadcast_to(beta, (2, 4)), atol=1e-9)


def test_layer_norm_matches_direct_formula():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 5))
    g = rng.normal(size=(5,))
    b = rng.normal(size=(5,))
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    expected = (x - mu) / np.sqrt(var + 1e-5) * g + b
    out = _layer_norm(x, g, b)[0]
    np.testing.assert_allclose(out, expected, atol=1e-12)


# -- conv3d ---------------------------------------------------------------------

def _conv3d_oracle(x, w):
    cin, t, h, wd = x.shape
    cout, _, kt, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (kt // 2, kt // 2), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    out = np.zeros((cout, t, h, wd))
    for co in range(cout):
        for ci in range(cin):
            for a in range(kt):
                for b in range(kh):
                    for c in range(kw):
                        out[co] += w[co, ci, a, b, c] * xp[ci, a:a + t, b:b + h, c:c + wd]
    return out


def test_conv3d_one_by_one_identity():
    x = Tensor(np.random.default_rng(8).normal(size=(1, 2, 3, 3)))
    w = Tensor(np.ones((1, 1, 1, 1, 1)))
    np.testing.assert_allclose(ad.conv3d(x, w).data, x.data, atol=1e-15)


def test_conv3d_all_ones_interior_is_27():
    x = Tensor(np.ones((1, 5, 5, 5)))
    w = Tensor(np.ones((1, 1, 3, 3, 3)))
    out = ad.conv3d(x, w).data
    assert out[0, 2, 2, 2] == pytest.approx(27.0)


def test_conv3d_matches_loop_oracle():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 3, 4, 5))
    w = rng.normal(size=(3, 2, 3, 3, 3))
    out = ad.conv3d(Tensor(x), Tensor(w)).data
    np.testing.assert_allclose(out, _conv3d_oracle(x, w), atol=1e-12)


def test_conv3d_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    w = Tensor(rng.normal(size=(2, 1, 3, 3, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(1, 2, 4, 4)))
    seed = rng.normal(size=(2, 2, 4, 4))
    assert grad_check(lambda t: (ad.conv3d(t, w) * seed).sum(), x) < 1e-6
    xc = Tensor(x.data)
    assert grad_check(lambda t: (ad.conv3d(xc, t) * seed).sum(),
                      Tensor(w.data)) < 1e-6
    # square channels (a missing in/out swap of the input gradient runs
    # silently) and a non-cubic kernel on a non-cubic volume
    w = Tensor(rng.normal(size=(2, 2, 3, 1, 5)), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 3, 4, 6)), requires_grad=True)
    seed = rng.normal(size=(2, 3, 4, 6))
    assert grad_check(lambda t: (ad.conv3d(t, w) * seed).sum(), x) < 1e-6
    assert grad_check(lambda t: (ad.conv3d(x, t) * seed).sum(), w) < 1e-6


def test_conv3d_graph_keeps_no_columns():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(4, 4, 8, 8)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 4, 3, 3, 3)), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.conv3d(x, w)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the im2col columns are 27x the input; the node may keep its output only
    assert held < 3 * out.data.nbytes
    out.backward()
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


def test_conv3d_skips_input_gradient_of_constant_input(monkeypatch):
    calls = []
    columns = ad._columns
    monkeypatch.setattr(ad, "_columns", lambda x, k: calls.append(1) or columns(x, k))
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 3, 4, 4)))
    w = Tensor(rng.normal(size=(3, 2, 3, 3, 3)), requires_grad=True)
    ad.conv3d(x, w).sum().backward()
    # the output and the weight gradient; no input gradient
    assert len(calls) == 2
    assert x.grad is None and w.grad.shape == w.shape


def test_conv3d_rejects_even_kernel():
    with pytest.raises(AutodiffError):
        ad.conv3d(Tensor(np.ones((1, 2, 2, 2))), Tensor(np.ones((1, 1, 2, 3, 3))))


# -- Adam -----------------------------------------------------------------------

def test_adam_first_step_is_signed_lr():
    g = np.array([0.5, -2.0, 1e-3])
    p = np.zeros(3)
    state = AdamState.init(p.shape, lr=0.05)
    new_p, _ = adam_step(p, g, state)
    np.testing.assert_allclose(new_p, -0.05 * np.sign(g), atol=1e-6)


def test_adam_zero_gradient_leaves_param():
    p = np.array([1.0, -2.0])
    state = AdamState.init(p.shape, lr=0.1)
    for _ in range(5):
        p, state = adam_step(p, np.zeros(2), state)
    np.testing.assert_allclose(p, [1.0, -2.0])


def test_adam_minimizes_scalar_quadratic():
    x = np.array(1.0)
    state = AdamState.init(x.shape, lr=0.05)
    for _ in range(100):
        x, state = adam_step(x, 2.0 * x, state)
    assert abs(float(x)) < 0.1


def test_adam_shape_mismatch_rejected():
    state = AdamState.init((2,), lr=0.1)
    with pytest.raises(AutodiffError):
        adam_step(np.zeros(2), np.zeros(3), state)


def test_determinism_repeated_forward_backward():
    rng = np.random.default_rng(11)
    base = rng.normal(size=(2, 3, 5, 7))

    def run():
        # the network node on a padded volume: convolutions, layer norms,
        # masked softmaxes, matmuls and relus
        cfg = ReconConfig(channels=4, n_blocks=1, heads=2)
        params = init_recon_params(cfg, np.random.default_rng(12))
        params["conv_out.w"].data = np.random.default_rng(13).normal(size=(1, 4, 3, 3, 3))
        x = Tensor(base.copy(), requires_grad=True)
        y, _ = recon_forward(x, cfg, params)
        out = (y * y).sum()
        out.backward()
        return out.data.copy(), (x.grad.copy(), params["block0.attn.wqkv"].grad.copy())

    o1, g1 = run()
    o2, g2 = run()
    assert np.array_equal(o1, o2) and all(np.array_equal(a, b) for a, b in zip(g1, g2))
