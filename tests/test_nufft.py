"""Tests for the exact nonuniform DFT, its adjoint and coordinate gradients."""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncs import autodiff as ad
from dyncs.autodiff import AutodiffError, Tensor
from dyncs.nufft import (cartesian_grid_coords, nudft_adjoint,
                         nudft_adjoint_op, nudft_forward, nudft_forward_op,
                         nudft_grad_coords)


def _forward_oracle(z, coords):
    """Direct nested-loop evaluation of the type-2 transform."""
    t_frames, h, w = z.shape
    xs = np.arange(h) - h // 2
    ys = np.arange(w) - w // 2
    out = np.zeros(coords.shape[:-1], dtype=np.complex128)
    it = np.ndindex(coords.shape[:-1])
    for idx in it:
        t = idx[0]
        kx, ky = coords[idx]
        acc = 0.0 + 0.0j
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                acc += z[t, i, j] * np.exp(-1j * (kx * x + ky * y))
        out[idx] = acc
    return out


def _random_coords(rng, shape):
    return rng.uniform(-np.pi, np.pi, size=shape + (2,))


# (T, H, W) for the oracle and gradient tests: a square single frame, and a
# non-square multi-frame case in which an x/y or frame mix-up shows.
SHAPES = ((1, 4, 4), (2, 5, 4))


def test_impulse_at_centered_origin_gives_unit_samples():
    h = w = 6
    z = np.zeros((1, h, w))
    z[0, h // 2, w // 2] = 1.0  # centered index (0, 0)
    coords = _random_coords(np.random.default_rng(0), (1, 2, 5))
    out = nudft_forward(z, coords)
    np.testing.assert_allclose(out, np.ones_like(out), atol=1e-12)


def test_dc_sample_of_constant_image_is_grid_size():
    z = np.ones((1, 4, 6))
    coords = np.zeros((1, 1, 1, 2))
    out = nudft_forward(z, coords)
    assert out[0, 0, 0] == pytest.approx(24.0, abs=1e-12)


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for t_frames, h, w in SHAPES:
        z = rng.normal(size=(t_frames, h, w))
        coords = _random_coords(rng, (t_frames, 1, 3))
        out = nudft_forward(z, coords)
        np.testing.assert_allclose(out, _forward_oracle(z, coords), atol=1e-12)


def test_adjoint_of_scaled_dc_sample_is_constant_one():
    h, w = 4, 5
    coords = np.zeros((1, 1, 1, 2))
    x = np.full((1, 1, 1), h * w, dtype=np.complex128)
    img = nudft_adjoint(x, coords, (1, h, w))
    np.testing.assert_allclose(img, np.ones((1, h, w)), atol=1e-12)


def test_adjoint_inner_product_identity():
    rng = np.random.default_rng(2)
    h, w = 5, 4
    z = rng.normal(size=(2, h, w)) + 1j * rng.normal(size=(2, h, w))
    coords = _random_coords(rng, (2, 3, 6))
    x = rng.normal(size=(2, 3, 6)) + 1j * rng.normal(size=(2, 3, 6))
    lhs = np.vdot(nudft_forward(z, coords), x)
    rhs = np.vdot(z, h * w * nudft_adjoint(x, coords, (2, h, w)))
    assert abs(lhs - rhs) < 1e-10


@settings(max_examples=60, deadline=None, database=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 5),
       st.integers(1, 7), st.integers(1, 7))
def test_adjoint_identity_property(data, t_frames, shots, m, h, w):
    """<A z, x> = <z, H*W * A^H x> over random sizes (H != W) and coordinates."""
    if h == w:
        w += 1
    coords = data.draw(hnp.arrays(np.float64, (t_frames, shots, m, 2),
                                  elements=st.floats(-np.pi, np.pi)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.normal(size=(t_frames, h, w)) + 1j * rng.normal(size=(t_frames, h, w))
    x = rng.normal(size=coords.shape[:-1]) + 1j * rng.normal(size=coords.shape[:-1])
    lhs = np.vdot(nudft_forward(z, coords), x)
    rhs = np.vdot(z, h * w * nudft_adjoint(x, coords, (t_frames, h, w)))
    assert abs(lhs - rhs) <= 1e-13 * np.abs(z).sum() * np.abs(x).sum()


def test_zero_samples_give_zero_image():
    coords = _random_coords(np.random.default_rng(3), (1, 2, 4))
    img = nudft_adjoint(np.zeros((1, 2, 4), dtype=np.complex128), coords, (1, 4, 4))
    np.testing.assert_allclose(img, 0.0)


def test_linearity_of_forward():
    rng = np.random.default_rng(4)
    z1 = rng.normal(size=(1, 4, 4))
    z2 = rng.normal(size=(1, 4, 4))
    coords = _random_coords(rng, (1, 2, 3))
    combo = nudft_forward(2.0 * z1 - 3.0 * z2, coords)
    parts = 2.0 * nudft_forward(z1, coords) - 3.0 * nudft_forward(z2, coords)
    np.testing.assert_allclose(combo, parts, atol=1e-12)


def test_full_grid_matches_fft():
    rng = np.random.default_rng(5)
    t_frames, h, w = 2, 8, 8
    z = rng.normal(size=(t_frames, h, w))
    coords = cartesian_grid_coords(t_frames, h, w)
    out = nudft_forward(z, coords).reshape(t_frames, h, w)
    for t in range(t_frames):
        ref = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(z[t])))
        np.testing.assert_allclose(out[t], ref, atol=1e-9)


def test_adjoint_of_forward_is_identity_on_full_grid():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(1, 8, 8))
    coords = cartesian_grid_coords(1, 8, 8)
    back = nudft_adjoint(nudft_forward(z, coords), coords, (1, 8, 8))
    np.testing.assert_allclose(back.real, z, atol=1e-9)
    np.testing.assert_allclose(back.imag, 0.0, atol=1e-9)


def test_frame_permutation_permutes_outputs():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(3, 4, 4))
    coords = np.broadcast_to(_random_coords(rng, (1, 2, 3)), (3, 2, 3, 2)).copy()
    out = nudft_forward(z, coords)
    perm = [2, 0, 1]
    out_perm = nudft_forward(z[perm], coords)
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


def test_out_of_range_coordinate_rejected():
    with pytest.raises(AutodiffError):
        nudft_forward(np.ones((1, 4, 4)), np.full((1, 1, 1, 2), 3.3))
    coords = np.zeros((1, 1, 3, 2))
    coords[0, 0, 1, 1] = np.nan
    with pytest.raises(AutodiffError):
        nudft_forward(np.ones((1, 4, 4)), coords)


# -- coordinate gradients -------------------------------------------------------

def test_coord_gradient_zero_for_centered_impulse():
    h = w = 6
    z = np.zeros((1, h, w))
    z[0, h // 2, w // 2] = 1.0
    coords = _random_coords(np.random.default_rng(8), (1, 1, 4))
    upstream = np.random.default_rng(9).normal(size=(1, 1, 4)) + 0.0j
    grad = nudft_grad_coords(z, coords, upstream)
    # samples are identically 1 + 0i regardless of the coordinates
    np.testing.assert_allclose(grad[..., :], 0.0, atol=1e-12)


def test_zero_upstream_gives_zero_gradient():
    rng = np.random.default_rng(10)
    z = rng.normal(size=(1, 4, 4))
    coords = _random_coords(rng, (1, 2, 3))
    grad = nudft_grad_coords(z, coords, np.zeros((1, 2, 3), dtype=np.complex128))
    np.testing.assert_allclose(grad, 0.0)


def test_forward_coord_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for t_frames, h, w in SHAPES:
        z = rng.normal(size=(t_frames, h, w))
        coords0 = _random_coords(rng, (t_frames, 1, 3)) * 0.9
        seed = rng.normal(size=(2, t_frames, 1, 3))

        def f(c):
            return (nudft_forward_op(z, c) * seed).sum()

        assert ad.grad_check(f, Tensor(coords0)) < 1e-5


def test_adjoint_coord_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    for t_frames, h, w in SHAPES:
        x = rng.normal(size=(2, t_frames, 2, 3))
        coords0 = _random_coords(rng, (t_frames, 2, 3)) * 0.9
        seed = rng.normal(size=(2, t_frames, h, w))

        def f(c):
            return (nudft_adjoint_op(Tensor(x), c, (t_frames, h, w)) * seed).sum()

        assert ad.grad_check(f, Tensor(coords0)) < 1e-5


def test_forward_op_image_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    for t_frames, h, w in SHAPES:
        z0 = rng.normal(size=(t_frames, h, w))
        coords = Tensor(_random_coords(rng, (t_frames, 1, 3)))
        seed = rng.normal(size=(2, t_frames, 1, 3))

        def f(z):
            return (nudft_forward_op(z, coords) * seed).sum()

        assert ad.grad_check(f, Tensor(z0)) < 1e-6
