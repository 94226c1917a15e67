"""Tests for the end-to-end pipeline: acquisition, losses, mu statistics,
both training stages and stacked evaluation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dyncs import nufft, recon
from dyncs import pipeline as pl
from dyncs.autodiff import AutodiffError, Tensor
from dyncs.data import PhantomSpec, gen_phantom
from dyncs.nufft import (cartesian_grid_coords, nudft_adjoint, nudft_forward)
from dyncs.recon import ReconConfig, init_recon_params, recon_forward
from dyncs.trajectory import PhysicsConfig, init_radial

from gradcheck import grad_check


def _small_rcfg():
    return ReconConfig(channels=4, n_blocks=1, heads=2, window=(2, 2, 2))


def _pcfg(grid):
    return PhysicsConfig(grid=(grid, grid))


# -- acquire ---------------------------------------------------------------------

def test_acquire_full_grid_is_identity():
    rng = np.random.default_rng(0)
    z = rng.random((2, 8, 8))
    out, _ = pl.acquire(z, cartesian_grid_coords(2, 8, 8))
    np.testing.assert_allclose(out[0], z, atol=1e-9)
    np.testing.assert_allclose(out[1], 0.0, atol=1e-9)


def test_acquire_zero_image_gives_zero():
    out, _ = pl.acquire(np.zeros((1, 8, 8)), init_radial(1, 2, 8).coords)
    np.testing.assert_allclose(out, 0.0)


def test_acquire_matches_composed_operator_oracle():
    rng = np.random.default_rng(1)
    z = rng.random((2, 8, 8))
    k = init_radial(2, 4, 16)
    out, _ = pl.acquire(z, k.coords)
    samples = nudft_forward(z, k.coords)
    expected = nudft_adjoint(samples, k.coords, z.shape)
    np.testing.assert_allclose(out[0], expected.real, atol=1e-12)
    np.testing.assert_allclose(out[1], expected.imag, atol=1e-12)


# -- losses ----------------------------------------------------------------------

def test_loss_main_zero_on_equal_inputs():
    z = np.random.default_rng(2).random((2, 4, 4))
    assert pl.loss_main(z, z)[0] == pytest.approx(0.0, abs=1e-15)


def test_loss_main_unit_offset_is_one():
    z = np.random.default_rng(3).random((2, 4, 4))
    assert pl.loss_main(z + 1.0, z)[0] == pytest.approx(1.0, abs=1e-12)


def test_loss_main_matches_direct_mse():
    rng = np.random.default_rng(4)
    a, b = rng.random((3, 4, 4)), rng.random((3, 4, 4))
    assert pl.loss_main(a, b)[0] == pytest.approx(
        float(np.mean((a - b) ** 2)), abs=1e-15)


def test_loss_main_shape_mismatch_rejected():
    with pytest.raises(AutodiffError):
        pl.loss_main(np.zeros((2, 4, 4)), np.zeros((2, 4, 5)))


# -- mu statistics -----------------------------------------------------------------

def test_mu_of_constant_video_is_zero():
    mu = pl.mean_temporal_derivative(np.full((4, 3, 3), 0.7))
    np.testing.assert_allclose(mu, 0.0)


def test_mu_of_linear_ramp_is_one():
    vol = np.stack([np.full((3, 3), float(t)) for t in range(4)])
    np.testing.assert_allclose(pl.mean_temporal_derivative(vol), 1.0)


def test_mu_matches_direct_oracle():
    rng = np.random.default_rng(5)
    x = rng.random((3, 2, 2))
    expected = [(x[t + 1] - x[t]).mean() for t in range(2)]
    np.testing.assert_allclose(pl.mean_temporal_derivative(x, mode="signed"),
                               expected, atol=1e-15)
    np.testing.assert_allclose(pl.mean_temporal_derivative(x, mode="abs"),
                               np.abs(expected), atol=1e-15)


def test_mu_requires_two_frames():
    with pytest.raises(AutodiffError):
        pl.mean_temporal_derivative(np.zeros((1, 3, 3)))


def test_dataset_mu_constant_volumes_is_zero():
    vols = [np.full((4, 3, 3), v) for v in (0.1, 0.5)]
    assert pl.dataset_mu(vols) == pytest.approx(0.0)


def test_dataset_mu_single_sample_is_its_mean():
    rng = np.random.default_rng(6)
    v = rng.random((4, 3, 3))
    expected = float(np.mean(np.abs((v[1:] - v[:-1]).mean(axis=(1, 2)))))
    assert pl.dataset_mu([v]) == pytest.approx(expected, abs=1e-15)


def test_dataset_mu_two_samples_is_arithmetic_mean():
    ramp = np.stack([np.full((2, 2), float(t)) for t in range(3)])  # mu~ = 1
    flat = np.zeros((3, 2, 2))                                      # mu~ = 0
    assert pl.dataset_mu([ramp, flat]) == pytest.approx(0.5)


def test_dataset_mu_rejects_empty():
    with pytest.raises(AutodiffError):
        pl.dataset_mu([])


# -- refinement loss -----------------------------------------------------------------

def test_loss_refine_reduces_to_mse_when_lambda_zero():
    rng = np.random.default_rng(7)
    z = rng.random((4, 3, 3))
    z_hat = rng.random((4, 3, 3))
    mu_x = 0.0
    assert pl.loss_refine(z_hat, z, mu_x, 0.0)[0] == pytest.approx(
        pl.loss_main(z_hat, z)[0], abs=1e-15)


def test_loss_refine_hinge_inactive_below_threshold():
    z = np.zeros((4, 3, 3))
    z_hat = np.full((4, 3, 3), 0.2)  # constant video: mu = 0
    mu_x = 0.5
    assert pl.loss_refine(z_hat, z, mu_x, 5.0)[0] == pytest.approx(
        0.04, abs=1e-12)


def test_loss_refine_penalizes_single_jump_by_hand():
    z = np.zeros((4, 2, 2))
    jump = 0.8
    z_hat_data = np.zeros((4, 2, 2))
    z_hat_data[2:] = jump  # one transition of size `jump`
    mu_x = 0.3
    lam = 5.0
    loss = pl.loss_refine(z_hat_data, z, mu_x, lam)[0]
    expected = float(np.mean(z_hat_data ** 2)) + lam * (jump - mu_x)
    assert loss == pytest.approx(expected, abs=1e-12)


def test_loss_refine_never_below_loss_main():
    rng = np.random.default_rng(8)
    z = rng.random((4, 3, 3))
    z_hat = rng.random((4, 3, 3))
    mu_x = 0.01
    refine = pl.loss_refine(z_hat, z, mu_x, 5.0)[0]
    main = pl.loss_main(z_hat, z)[0]
    assert refine >= main


def test_mu_gradients_flow_through_hinge():
    rng = np.random.default_rng(9)
    z = np.zeros((3, 2, 2))
    mu_x = 0.0
    x0 = rng.random((3, 2, 2)) + 0.5

    assert grad_check(lambda t: pl.loss_refine(t, z, mu_x, 2.0), x0) < 1e-5


@settings(max_examples=40)
@given(st.data(), st.integers(2, 5), st.integers(1, 5), st.integers(1, 6),
       st.sampled_from(["abs", "signed"]))
def test_closed_form_loss_gradients_match_central_differences(data, t, h, w, mode):
    """Both losses against central differences, on non-square frames (H*W
    often not a power of two), with mu_X drawn between the transitions' mu
    so that the hinge is active on some and no probe crosses its kink."""
    if h == w:
        w += 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.random((t, h, w))
    x0 = rng.random((t, h, w)) + np.arange(t)[:, None, None] * rng.normal(scale=0.3)
    mu = pl.mean_temporal_derivative(x0, mode)
    cuts = np.concatenate([[mu.min() - 0.1], np.sort(mu), [mu.max() + 0.1]])
    cut = data.draw(st.integers(0, t - 1))
    mu_x = float(cuts[cut] + cuts[cut + 1]) / 2
    assume(np.min(np.abs(mu - mu_x)) > 1e-3)
    lam = data.draw(st.floats(0.1, 10.0))

    assert grad_check(lambda x: pl.loss_main(x, z), x0) < 1e-6
    assert grad_check(lambda x: pl.loss_refine(x, z, mu_x, lam, mode), x0) < 1e-6
    value, grad = pl.loss_refine(x0, z, mu_x, 0.0, mode)
    main_value, main_grad = pl.loss_main(x0, z)
    assert value == main_value and np.array_equal(grad, main_grad)


# -- training ---------------------------------------------------------------------

def _tiny_train(epochs, seed=0, lr_traj=0.05, volumes=None, learnable=True):
    if volumes is None:
        volumes = [gen_phantom(PhantomSpec(grid=(12, 12), frames=4, seed=s))
                   for s in range(3)]
    tcfg = pl.TrainConfig(epochs_main=epochs, seed=seed, lr_traj=lr_traj,
                          batch=2, frames_k=4)
    rcfg = _small_rcfg()
    params = init_recon_params(rcfg, np.random.default_rng(seed))
    traj = init_radial(4, 2, 8)
    traj.learnable = learnable
    return pl.train_main(volumes, tcfg, _pcfg(12), rcfg, params, traj), traj


def test_overfit_single_phantom_reduces_loss_tenfold():
    vol = gen_phantom(PhantomSpec(grid=(16, 16), frames=4, seed=0))
    tcfg = pl.TrainConfig(epochs_main=500, seed=0, batch=1, frames_k=4,
                          lr_net=1e-3)
    rcfg = _small_rcfg()
    params = init_recon_params(rcfg, np.random.default_rng(0))
    traj = init_radial(4, 4, 16)
    result = pl.train_main([vol], tcfg, _pcfg(16), rcfg, params, traj)
    assert result.history[-1]["train_loss"] < 0.1 * result.history[0]["train_loss"]


def test_frozen_trajectory_stays_at_projected_initialization():
    from dyncs.trajectory import kinematic_bounds, project_kinematic
    result, traj = _tiny_train(epochs=2, lr_traj=0.0)
    projected = project_kinematic(traj.coords, kinematic_bounds(_pcfg(12)))
    assert np.array_equal(result.trajectory.coords, projected)


def test_training_is_deterministic_given_seed():
    r1, _ = _tiny_train(epochs=2, seed=5)
    r2, _ = _tiny_train(epochs=2, seed=5)
    assert r1.history == r2.history
    assert np.array_equal(r1.trajectory.coords, r2.trajectory.coords)


def test_train_main_twice_in_one_process_is_byte_identical():
    # a learned trajectory, so the projection, both Adam states and the
    # acquisition's coordinate gradient all run, and four training samples
    # in batches of two, so the shuffle decides which samples share a step
    volumes = [gen_phantom(PhantomSpec(grid=(12, 12), frames=4, seed=s)) for s in range(5)]
    (a, _), (b, _) = (_tiny_train(epochs=2, seed=3, volumes=volumes) for _ in range(2))
    assert sorted(a.params) == sorted(b.params)
    for name in a.params:
        assert a.params[name].data.tobytes() == b.params[name].data.tobytes(), name
    assert a.trajectory.coords.tobytes() == b.trajectory.coords.tobytes()
    assert repr(a.history) == repr(b.history)  # repr keeps every bit of a float


def test_training_keeps_trajectory_feasible():
    result, _ = _tiny_train(epochs=3)
    assert all(row["max_violation"] <= 1e-6 for row in result.history)


@pytest.mark.parametrize("learnable", [True, False], ids=["learned", "frozen"])
def test_only_a_learned_trajectory_takes_the_network_input_gradient(monkeypatch,
                                                                     learnable):
    # a frozen trajectory's window leaves are constant, so the network's
    # backward skips conv_in's input gradient and no vjp is called
    flags, vjps = [], []
    net_backward, acquire = recon._net_backward, pl.acquire

    def counted_acquire(z, coords):
        regrid, vjp = acquire(z, coords)
        return regrid, lambda g: vjps.append(1) or vjp(g)

    monkeypatch.setattr(recon, "_net_backward",
                        lambda *a: flags.append(a[5]) or net_backward(*a))
    monkeypatch.setattr(pl, "acquire", counted_acquire)
    _tiny_train(epochs=2, learnable=learnable)
    assert flags and set(flags) == {learnable}
    assert len(vjps) == (2 if learnable else 0)  # one step per epoch


@pytest.mark.parametrize("learnable", [True, False], ids=["learned", "frozen"])
def test_training_builds_phase_tables_once_per_acquisition(monkeypatch, learnable):
    frames = []
    build = nufft._phase_tables
    monkeypatch.setattr(nufft, "_phase_tables",
                        lambda coords, t, h, w: frames.append(t) or build(coords, t, h, w))
    volumes = [gen_phantom(PhantomSpec(grid=(12, 12), frames=4, seed=s))
               for s in range(5)]
    tcfg = pl.TrainConfig(epochs_main=2, seed=0, batch=2, frames_k=4, val_fraction=0.4)
    rcfg = _small_rcfg()
    traj = init_radial(4, 2, 8)
    traj.learnable = learnable
    pl.train_main(volumes, tcfg, _pcfg(12), rcfg,
                  init_recon_params(rcfg, np.random.default_rng(0)), traj)
    # per epoch: 3 training samples in steps of 2 and 1, then 2 validation
    # samples; a learned step builds the tables for its forward and backward,
    # and each pass builds frame t's tables once, whatever its sample count
    per_step = 2 if learnable else 1
    assert frames == [0, 1, 2, 3] * (tcfg.epochs_main * (2 * per_step + 1))


def test_learned_step_gradient_sums_the_samples_acquisitions(monkeypatch):
    from dyncs.trajectory import kinematic_bounds, project_kinematic
    volumes = [gen_phantom(PhantomSpec(grid=(12, 12), frames=4, seed=s))
               for s in range(3)]
    tcfg = pl.TrainConfig(epochs_main=1, seed=0, batch=2, frames_k=4)
    rcfg = _small_rcfg()
    rng = np.random.default_rng(0)
    params = init_recon_params(rcfg, rng)
    # a zero output layer would give the trajectory a zero gradient
    params["conv_out.w"].data[:] = 0.1 * rng.normal(size=params["conv_out.w"].shape)
    traj = init_radial(4, 2, 8)
    coords0 = project_kinematic(traj.coords, kinematic_bounds(_pcfg(12)))
    train_idx, _ = pl._split_train_val(len(volumes), tcfg.val_fraction)
    assert len(train_idx) == tcfg.batch  # one optimizer step
    expected = np.zeros_like(coords0)
    for i in train_idx:
        regrid, vjp = pl.acquire(volumes[i], coords0)
        leaf = Tensor(regrid, requires_grad=True)  # the leaf `_fit` gives the network
        z_hat, _ = recon_forward(leaf, rcfg, params)
        z_hat.backward(pl.loss_main(z_hat.data, volumes[i])[1])
        expected += vjp(leaf.grad)
    expected /= len(train_idx)
    for p in params.values():
        p.grad = None
    grads = []
    adam = pl.adam_step
    monkeypatch.setattr(pl, "adam_step",
                        lambda param, grad, state: grads.append(grad) or adam(param, grad, state))
    pl.train_main(volumes, tcfg, _pcfg(12), rcfg, params, traj)
    (step,) = [g for g in grads if g.shape == coords0.shape]
    assert np.abs(expected).max() > 0.0
    assert np.abs(step - expected).max() <= 1e-12 * np.abs(expected).max()


def test_refine_zero_epochs_returns_state_unchanged():
    vols = [gen_phantom(PhantomSpec(grid=(12, 12), frames=8, seed=s))
            for s in range(2)]
    tcfg = pl.TrainConfig(epochs_main=1, epochs_refine=0, seed=0, frames_k=4)
    rcfg = _small_rcfg()
    params = init_recon_params(rcfg, np.random.default_rng(0))
    before = {n: p.data.copy() for n, p in params.items()}
    traj = init_radial(4, 2, 8)
    mu_x = 0.1
    result = pl.train_refine(vols, tcfg, mu_x, _pcfg(12), rcfg, params, traj)
    assert result.history == []
    for name in params:
        assert np.array_equal(params[name].data, before[name])


def test_refine_rejects_wrong_frame_count():
    vols = [np.zeros((6, 12, 12))]
    tcfg = pl.TrainConfig(frames_k=4)
    rcfg = _small_rcfg()
    params = init_recon_params(rcfg, np.random.default_rng(0))
    with pytest.raises(AutodiffError):
        pl.train_refine(vols, tcfg, 0.1, _pcfg(12), rcfg,
                        params, init_radial(4, 2, 8))


def test_train_main_rejects_a_trajectory_of_other_frame_count():
    # a 2-frame trajectory under frames_k 4 would train on 2-frame windows,
    # and evaluate_stacked would then refuse the result
    vols = [np.zeros((4, 12, 12))] * 2
    tcfg = pl.TrainConfig(epochs_main=1, frames_k=4)
    rcfg = _small_rcfg()
    params = init_recon_params(rcfg, np.random.default_rng(0))
    with pytest.raises(AutodiffError, match="frames_k"):
        pl.train_main(vols, tcfg, _pcfg(12), rcfg, params, init_radial(2, 2, 8))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["lr_traj", "lr_net", "lr_traj_refine", "lr_net_refine",
                                   "lambda_ref"])
def test_train_config_rejects_non_finite_rates(field, value):
    with pytest.raises(AutodiffError):
        pl.TrainConfig(**{field: value})


@pytest.mark.parametrize("mu_x", [np.nan, np.inf])
def test_refine_rejects_non_finite_mu_x(mu_x):
    vols = [np.zeros((8, 12, 12))] * 2
    tcfg = pl.TrainConfig(epochs_refine=1, frames_k=4)
    rcfg = _small_rcfg()
    params = init_recon_params(rcfg, np.random.default_rng(0))
    with pytest.raises(AutodiffError, match="mu_X must be finite"):
        pl.train_refine(vols, tcfg, mu_x, _pcfg(12), rcfg,
                        params, init_radial(4, 2, 8))


def test_refine_with_nothing_to_train_is_rejected():
    vols = [np.zeros((8, 12, 12))] * 2
    tcfg = pl.TrainConfig(epochs_refine=1, frames_k=4, lr_traj_refine=0.0,
                          freeze_theta_refine=True)
    rcfg = _small_rcfg()
    params = init_recon_params(rcfg, np.random.default_rng(0))
    with pytest.raises(AutodiffError, match="nothing to train"):
        pl.train_refine(vols, tcfg, 0.1, _pcfg(12), rcfg,
                        params, init_radial(4, 2, 8))


def test_refine_with_zero_lambda_is_plain_mse_finetune():
    vols = [gen_phantom(PhantomSpec(grid=(12, 12), frames=8, seed=s))
            for s in range(2)]
    rcfg = _small_rcfg()
    mu_x = 1e9  # hinge certainly inactive

    def run(lam, mu_x_used):
        tcfg = pl.TrainConfig(epochs_main=1, epochs_refine=1, seed=0,
                              frames_k=4, lambda_ref=lam, batch=2)
        params = init_recon_params(rcfg, np.random.default_rng(0))
        return pl.train_refine(vols, tcfg, mu_x_used, _pcfg(12), rcfg, params,
                               init_radial(4, 2, 8))

    a = run(0.0, 0.0)
    b = run(5.0, mu_x)
    assert np.array_equal(a.trajectory.coords, b.trajectory.coords)


def test_refine_frozen_network_moves_only_the_trajectory():
    from dyncs.trajectory import kinematic_bounds, project_kinematic
    vols = [gen_phantom(PhantomSpec(grid=(12, 12), frames=8, seed=s))
            for s in range(3)]
    tcfg = pl.TrainConfig(epochs_refine=2, seed=0, frames_k=4, batch=2,
                          lr_traj_refine=0.01, freeze_theta_refine=True)
    rcfg = _small_rcfg()
    rng = np.random.default_rng(0)
    params = init_recon_params(rcfg, rng)
    # a zero output layer would give the trajectory a zero gradient
    params["conv_out.w"].data[:] = 0.1 * rng.normal(size=params["conv_out.w"].shape)
    before = {n: p.data.copy() for n, p in params.items()}
    traj = init_radial(4, 2, 8)
    result = pl.train_refine(vols, tcfg, 0.01, _pcfg(12), rcfg,
                             params, traj)
    for name in params:
        assert np.array_equal(result.params[name].data, before[name]), name
        assert result.params[name].grad is None, name
    start = project_kinematic(traj.coords, kinematic_bounds(_pcfg(12)))
    assert np.abs(result.trajectory.coords - start).max() > 1e-6


def test_refine_validation_matches_stacked_eval():
    """The refine stage's val_loss and stacked evaluation reconstruct the
    held-out 2k-frame volumes through the same k-frame windows."""
    vols = [gen_phantom(PhantomSpec(grid=(24, 24), frames=8, seed=s))
            for s in range(3)]
    tcfg = pl.TrainConfig(epochs_refine=1, seed=0, frames_k=4, batch=2,
                          lr_traj_refine=0.01, lr_net_refine=1e-4)
    rcfg = _small_rcfg()
    params = init_recon_params(rcfg, np.random.default_rng(0))
    mu_x = 0.01
    result = pl.train_refine(vols, tcfg, mu_x, _pcfg(24), rcfg, params,
                             init_radial(4, 2, 12))
    _, val_idx = pl._split_train_val(len(vols), tcfg.val_fraction)
    assert val_idx
    losses = []
    for i in val_idx:
        recon = pl.evaluate_stacked(result.trajectory, result.params, rcfg,
                                    vols[i], 4).reconstruction
        losses.append(pl.loss_refine(recon, vols[i], mu_x,
                                     tcfg.lambda_ref, mode=tcfg.mu_mode)[0])
    assert result.history[-1]["val_loss"] == pytest.approx(np.mean(losses),
                                                           rel=1e-12)


# -- stacked evaluation --------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_small():
    vols = [gen_phantom(PhantomSpec(grid=(24, 24), frames=4, seed=s))
            for s in range(3)]
    tcfg = pl.TrainConfig(epochs_main=2, seed=0, batch=2, frames_k=4)
    rcfg = _small_rcfg()
    params = init_recon_params(rcfg, np.random.default_rng(0))
    traj = init_radial(4, 2, 12)
    result = pl.train_main(vols, tcfg, PhysicsConfig(grid=(24, 24)), rcfg,
                           params, traj)
    return result, rcfg


def test_stacked_eval_equals_plain_inference_at_t_equals_k(trained_small):
    result, rcfg = trained_small
    z = gen_phantom(PhantomSpec(grid=(24, 24), frames=4, seed=9))
    res = pl.evaluate_stacked(result.trajectory, result.params, rcfg, z, k=4)
    regrid, _ = pl.acquire(z, result.trajectory.coords)
    plain, _ = recon_forward(Tensor(regrid), rcfg, result.params)
    assert np.array_equal(res.reconstruction, plain.data)


def test_stacked_eval_padded_tail_arithmetic(trained_small, monkeypatch):
    result, rcfg = trained_small
    z = gen_phantom(PhantomSpec(grid=(24, 24), frames=11, seed=10))
    frames = []
    build = nufft._phase_tables
    monkeypatch.setattr(nufft, "_phase_tables",
                        lambda coords, t, h, w: frames.append(t) or build(coords, t, h, w))
    res = pl.evaluate_stacked(result.trajectory, result.params, rcfg, z, k=4)
    monkeypatch.undo()
    assert frames == [0, 1, 2, 3]  # all three windows share one acquisition
    assert res.reconstruction.shape == (11, 24, 24)
    assert len(res.mu) == 10
    # the cropped tail must equal reconstructing the zero-padded window
    padded = np.concatenate([z[8:], np.zeros((1, 24, 24))], axis=0)
    regrid, _ = pl.acquire(padded, result.trajectory.coords)
    tail, _ = recon_forward(Tensor(regrid), rcfg, result.params)
    assert np.array_equal(res.reconstruction[8:], tail.data[:3])


def test_stacked_eval_periodic_input_repeats_windows(trained_small):
    result, rcfg = trained_small
    unit = gen_phantom(PhantomSpec(grid=(24, 24), frames=4, seed=11))
    z = np.concatenate([unit, unit], axis=0)
    res = pl.evaluate_stacked(result.trajectory, result.params, rcfg, z, k=4)
    assert np.array_equal(res.reconstruction[:4], res.reconstruction[4:])


def test_stacked_eval_reports_metrics(trained_small):
    result, rcfg = trained_small
    z = gen_phantom(PhantomSpec(grid=(24, 24), frames=8, seed=12))
    res = pl.evaluate_stacked(result.trajectory, result.params, rcfg, z, k=4)
    assert set(res.metrics) >= {"psnr", "vif", "fsim"}


def test_stacked_eval_keeps_no_window_nodes():
    # forward only: each window's network node goes once its output is
    # taken, so the 7 windows of T=27 never hold their block and conv inputs
    # (~2.6 MB a window at c16/b2, grid 32) at once
    rng = np.random.default_rng(25)
    rcfg = ReconConfig()  # the CLI default, c16/b2
    params = init_recon_params(rcfg, rng)  # trainable, as after training
    z = gen_phantom(PhantomSpec(grid=(32, 32), frames=27, seed=3))
    traj = init_radial(4, 8, 64)
    tracemalloc.start()
    try:
        pl.evaluate_stacked(traj, params, rcfg, z, k=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # ~11 MB; ~27 MB when every window's node lives to the end of the pass
    assert peak < 18e6


# -- end-to-end gradients -------------------------------------------------------------

def test_end_to_end_coordinate_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    z = gen_phantom(PhantomSpec(grid=(8, 8), frames=2, seed=1))
    rcfg = ReconConfig(channels=4, n_blocks=1, heads=2, window=(2, 2, 2))
    params = init_recon_params(rcfg, rng)
    # the output layer initializes to zero, which would make the coordinate
    # gradient identically zero; give it weight so the check is not vacuous
    params["conv_out.w"].data[:] = 0.1 * rng.normal(
        size=params["conv_out.w"].shape)
    coords0 = init_radial(2, 2, 6, span=0.7 * np.pi).coords

    def f(c):
        # the network on a leaf holding the acquisition's output, and the
        # acquisition's vjp of that leaf's gradient, as `_fit` composes them
        regrid, vjp = pl.acquire(z, c)
        leaf = Tensor(regrid, requires_grad=True)
        z_hat, _ = recon_forward(leaf, rcfg, params)
        loss, grad = pl.loss_main(z_hat.data, z)
        z_hat.backward(grad)
        return loss, vjp(leaf.grad)

    assert np.abs(f(coords0)[1]).max() > 0.0
    assert grad_check(f, coords0, h=1e-5) < 1e-4
