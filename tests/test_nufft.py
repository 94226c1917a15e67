"""Tests for the exact nonuniform DFT, its adjoint and the acquisition's
(regrid, vjp) pair."""

import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncs import nufft
from dyncs.autodiff import AutodiffError
from dyncs.nufft import (acquire, cartesian_grid_coords, nudft_adjoint,
                         nudft_forward)

from gradcheck import grad_check


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


def _adjoint_oracle(x, coords, h, w):
    """Direct sum 1/(H*W) * sum_j X_j * exp(+i (kx*x + ky*y)) per frame."""
    xs = np.arange(h) - h // 2
    ys = np.arange(w) - w // 2
    out = np.zeros((coords.shape[0], h, w), dtype=np.complex128)
    for idx in np.ndindex(coords.shape[:-1]):
        kx, ky = coords[idx]
        for i, xv in enumerate(xs):
            for j, yv in enumerate(ys):
                out[idx[0], i, j] += x[idx] * np.exp(1j * (kx * xv + ky * yv))
    return out / (h * w)


def test_adjoint_matches_loop_oracle():
    rng = np.random.default_rng(15)
    for h, w in ((5, 4), (6, 7)):
        coords = _random_coords(rng, (2, 2, 3))
        x = rng.normal(size=(2, 2, 3)) + 1j * rng.normal(size=(2, 2, 3))
        img = nudft_adjoint(x, coords, (2, h, w))
        np.testing.assert_allclose(img, _adjoint_oracle(x, coords, h, w), atol=1e-12)


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


@settings(max_examples=60)
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


@settings(max_examples=60)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 5),
       st.integers(1, 6), st.integers(1, 6))
def test_acquire_is_linear_self_adjoint_and_positive(data, t_frames, shots, m, h, w):
    """acquire is linear in z, and its AᴴA is self-adjoint and positive
    semidefinite: <u, AᴴA z> = <AᴴA u, z> and <z, AᴴA z> >= 0."""
    coords = data.draw(hnp.arrays(np.float64, (t_frames, shots, m, 2),
                                  elements=st.floats(-np.pi, np.pi)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    u, z = rng.normal(size=(2, t_frames, h, w))
    a, b = rng.normal(size=2)
    out, _ = acquire(np.stack([u, z, a * u + b * z]), coords)
    au, az, amix = out[:, 0] + 1j * out[:, 1]
    # each AᴴA entry sums shots*m samples of at most sum|z| each, over H*W
    bound = shots * m * np.abs(u).sum() * np.abs(z).sum()
    mix_bound = shots * m * (abs(a) * np.abs(u).sum() + abs(b) * np.abs(z).sum())
    assert np.abs(amix - (a * au + b * az)).max() <= 1e-13 * mix_bound
    assert abs(np.vdot(u, az) - np.vdot(au, z)) <= 1e-13 * bound
    quad = np.vdot(z, az)
    assert quad.real >= -1e-13 * bound and abs(quad.imag) <= 1e-13 * bound


@settings(max_examples=100)
@given(st.data(), st.integers(1, 9), st.integers(1, 9), st.integers(1, 6))
def test_phase_tables_equal_the_complex_exponential(data, h, w, m):
    """The conjugate-symmetric tables are bit-identical to exp(-i k*x)."""
    coords = data.draw(hnp.arrays(np.float64, (2, 1, m, 2),
                                  elements=st.floats(-np.pi, np.pi)))
    coords[0, 0, 0] = (np.pi, -np.pi)
    coords[1, 0, 0] = (-np.pi, np.pi)
    xs = np.arange(h) - h // 2
    ys = np.arange(w) - w // 2
    for t in range(2):
        ex, ey = nufft._phase_tables(coords, t, h, w)
        flat = coords[t].reshape(-1, 2)
        assert np.array_equal(ex, np.exp(-1j * (flat[:, 0, None] * xs)))
        assert np.array_equal(ey, np.exp(-1j * (flat[:, 1, None] * ys)))


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


# -- acquisition pair -----------------------------------------------------------

def test_acquire_coord_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    # the last case is a batch of two images on the same coordinates
    for batch, (t_frames, h, w) in zip(((), (), (2,)), SHAPES + SHAPES[-1:]):
        z = rng.normal(size=batch + (t_frames, h, w))
        coords0 = _random_coords(rng, (t_frames, 2, 3)) * 0.9
        seed = rng.normal(size=batch + (2, t_frames, h, w))

        def f(c):
            regrid, vjp = acquire(z, c)
            return float((regrid * seed).sum()), vjp(seed)

        assert grad_check(f, coords0) < 1e-5


@settings(max_examples=40)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.integers(1, 4),
       st.integers(2, 5), st.integers(2, 5))
def test_acquire_coord_gradient_matches_central_differences(data, t_frames, n_images,
                                                            shots, m, h, w):
    """acquire's coordinate gradient, summed over a batch of images, against
    central differences of <seed, acquire(z, c)> on random trajectories that
    stay inside the box [-pi, pi] under every probe."""
    coords0 = data.draw(hnp.arrays(np.float64, (t_frames, shots, m, 2),
                                   elements=st.floats(-3.1, 3.1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.normal(size=(n_images, t_frames, h, w))
    seed = rng.normal(size=(n_images, 2, t_frames, h, w))
    analytic = acquire(z, coords0)[1](seed).ravel()
    step = 1e-5
    numeric = np.empty(coords0.size)
    for i, delta in enumerate(step * np.eye(coords0.size)):
        delta = delta.reshape(coords0.shape)
        up, down = (acquire(z, coords0 + s * delta)[0] for s in (1, -1))
        numeric[i] = ((up - down) * seed).sum() / (2 * step)
    assert np.abs(analytic - numeric).max() <= 1e-7 * np.abs(analytic).max() + 1e-9


def test_acquire_memory_peaks_at_the_train_traj_64_shape():
    """One acquire forward, and its vjp, at the train-traj-64 shape (4
    images, T=4, grid 64, 8x128 points) hold one frame's phase tables at a
    time: ~4.6 and ~6.8 MB above what each pass starts from, against ~13.9
    and ~26.7 MB when a pass builds every frame's tables at once."""
    rng = np.random.default_rng(16)
    z = rng.normal(size=(4, 4, 64, 64))
    coords = _random_coords(rng, (4, 8, 128))
    seed = rng.normal(size=(4, 2, 4, 64, 64))
    tracemalloc.start()
    try:
        _, vjp = acquire(z, coords)
        forward = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        vjp(seed)
        backward = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert forward < 7e6
    assert backward < 9e6


def _acquire_terms(z, coords0, seed):
    """acquire's coordinate gradient under upstream `seed`, split into its two
    terms with nufft's helpers: (adjoint-transform term, forward-transform
    term), each [T,S,m,2]. Their sum is acquire's vjp, bit for bit."""
    h, w = z.shape[1:]
    xs, ys = nufft._centered_axes(h, w)
    adj, fwd = [], []
    for t, (zt, gt) in enumerate(zip(z, seed[0] + 1j * seed[1])):
        ex, ey = nufft._phase_tables(coords0, t, h, w)
        egu = nufft._product(ex, ey, gt)
        x = nufft._product(ex, ey, zt).sum(-1)
        adj.append(nufft._coord_term(x, gt, egu, ex * xs, ey, ys))
        fwd.append(nufft._coord_term(egu.sum(-1) / (h * w), zt, nufft._product(ex, ey, zt),
                                     ex * xs, ey, ys))
    adj, fwd = np.reshape(adj, coords0.shape) / (h * w), np.reshape(fwd, coords0.shape)
    total = acquire(z, coords0)[1](seed)
    assert np.array_equal(total, adj + fwd)
    return adj, fwd


def _channels(image):
    return np.stack([image.real, image.imag])


def test_forward_coord_gradients_match_finite_differences():
    # The forward transform's term alone: the samples A(c) z move with c, the
    # adjoint regrids them on the fixed coords0.
    rng = np.random.default_rng(11)
    for t_frames, h, w in SHAPES:
        z = rng.normal(size=(t_frames, h, w))
        coords0 = _random_coords(rng, (t_frames, 2, 3)) * 0.9
        seed = rng.normal(size=(2, t_frames, h, w))

        def f(c):
            zt = nudft_adjoint(nudft_forward(z, c), coords0, z.shape)
            return (_channels(zt) * seed).sum()

        analytic = _acquire_terms(z, coords0, seed)[1]
        assert grad_check(lambda c: (f(c), analytic), coords0) < 1e-5


def test_adjoint_coord_gradients_match_finite_differences():
    # The adjoint transform's term alone: the samples are fixed at A(coords0) z,
    # the adjoint regrids them on c.
    rng = np.random.default_rng(12)
    for t_frames, h, w in SHAPES:
        z = rng.normal(size=(t_frames, h, w))
        coords0 = _random_coords(rng, (t_frames, 2, 3)) * 0.9
        seed = rng.normal(size=(2, t_frames, h, w))
        x = nudft_forward(z, coords0)

        def f(c):
            return (_channels(nudft_adjoint(x, c, z.shape)) * seed).sum()

        analytic = _acquire_terms(z, coords0, seed)[0]
        assert grad_check(lambda c: (f(c), analytic), coords0) < 1e-5


def test_acquire_batch_equals_single_calls():
    rng = np.random.default_rng(14)
    z = rng.normal(size=(3, 2, 5, 4))
    coords = _random_coords(rng, (2, 2, 3))
    seed = rng.normal(size=(3, 2, 2, 5, 4))
    batched, vjp = acquire(z, coords)
    singles = [acquire(zb, coords) for zb in z]
    assert np.array_equal(batched, np.stack([regrid for regrid, _ in singles]))
    summed = sum(single_vjp(gb) for (_, single_vjp), gb in zip(singles, seed))
    assert np.max(np.abs(vjp(seed) - summed)) <= 1e-12 * np.max(np.abs(summed))


def test_zero_upstream_gives_zero_gradient():
    rng = np.random.default_rng(10)
    z = rng.normal(size=(1, 4, 4))
    _, vjp = acquire(z, _random_coords(rng, (1, 2, 3)))
    np.testing.assert_allclose(vjp(np.zeros((2, 1, 4, 4))), 0.0)


@pytest.mark.parametrize("bad", ["shape", "nan", "inf"])
def test_acquire_vjp_rejects_a_bad_seed(bad):
    rng = np.random.default_rng(17)
    regrid, vjp = acquire(rng.normal(size=(2, 3, 4, 4)), _random_coords(rng, (3, 2, 3)))
    seed = rng.normal(size=regrid.shape)
    if bad == "shape":
        seed = seed[:1]  # one image's seed for a batch of two
    else:
        seed[1, 0, 2, 3, 1] = float(bad)
    with pytest.raises(AutodiffError, match="seed"):
        vjp(seed)


def test_acquire_vjp_keeps_no_state():
    # the vjp holds no consumed flag: a second call under the same seed
    # rebuilds the tables and gives the same array
    rng = np.random.default_rng(18)
    regrid, vjp = acquire(rng.normal(size=(2, 3, 5, 4)), _random_coords(rng, (3, 2, 3)))
    seed = rng.normal(size=regrid.shape)
    first = vjp(seed)
    assert np.array_equal(vjp(seed), first)


def test_acquire_rejects_frame_count_mismatch():
    coords = _random_coords(np.random.default_rng(12), (3, 1, 4))
    with pytest.raises(AutodiffError, match="frame count"):
        acquire(np.ones((2, 4, 4)), coords)


def test_acquire_builds_phase_tables_once_per_pass(monkeypatch):
    frames = []
    build = nufft._phase_tables
    monkeypatch.setattr(nufft, "_phase_tables",
                        lambda coords, t, h, w: frames.append(t) or build(coords, t, h, w))
    rng = np.random.default_rng(13)
    coords = _random_coords(rng, (3, 2, 3))
    # one image, then a batch of two: each pass builds frame t's tables once,
    # in frame order, whatever the number of images
    for z in (rng.normal(size=(3, 5, 4)), rng.normal(size=(2, 3, 5, 4))):
        frames.clear()
        regrid, vjp = acquire(z, coords)
        assert frames == [0, 1, 2]
        vjp(np.ones_like(regrid))
        assert frames == [0, 1, 2] * 2  # the forward's frames, then the vjp's
