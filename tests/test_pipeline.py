"""Tests for the end-to-end pipeline: acquisition, losses, mu statistics,
both training stages and stacked evaluation."""

import numpy as np
import pytest

from dyncs import pipeline as pl
from dyncs.autodiff import AutodiffError, Tensor
from dyncs.data import PhantomSpec, gen_phantom
from dyncs.nufft import (cartesian_grid_coords, nudft_adjoint, nudft_forward)
from dyncs.recon import ReconConfig, init_recon_params, recon_forward
from dyncs.trajectory import PhysicsConfig, Trajectory, init_radial


def _small_rcfg():
    return ReconConfig(channels=4, n_blocks=1, heads=2, window=(2, 2, 2))


def _pcfg(grid):
    return PhysicsConfig(grid=(grid, grid))


# -- acquire ---------------------------------------------------------------------

def test_acquire_full_grid_is_identity():
    rng = np.random.default_rng(0)
    z = rng.random((2, 8, 8))
    coords = Tensor(cartesian_grid_coords(2, 8, 8))
    out = pl.acquire(z, coords)
    np.testing.assert_allclose(out.data[0], z, atol=1e-9)
    np.testing.assert_allclose(out.data[1], 0.0, atol=1e-9)


def test_acquire_zero_image_gives_zero():
    coords = Tensor(init_radial(1, 2, 8).coords)
    out = pl.acquire(np.zeros((1, 8, 8)), coords)
    np.testing.assert_allclose(out.data, 0.0)


def test_acquire_matches_composed_operator_oracle():
    rng = np.random.default_rng(1)
    z = rng.random((2, 8, 8))
    k = init_radial(2, 4, 16)
    out = pl.acquire(z, Tensor(k.coords))
    samples = nudft_forward(z, k.coords)
    expected = nudft_adjoint(samples, k.coords, z.shape)
    np.testing.assert_allclose(out.data[0], expected.real, atol=1e-12)
    np.testing.assert_allclose(out.data[1], expected.imag, atol=1e-12)


# -- losses ----------------------------------------------------------------------

def test_loss_main_zero_on_equal_inputs():
    z = np.random.default_rng(2).random((2, 4, 4))
    assert pl.loss_main(Tensor(z), z).item() == pytest.approx(0.0, abs=1e-15)


def test_loss_main_unit_offset_is_one():
    z = np.random.default_rng(3).random((2, 4, 4))
    assert pl.loss_main(Tensor(z + 1.0), z).item() == pytest.approx(1.0, abs=1e-12)


def test_loss_main_matches_direct_mse():
    rng = np.random.default_rng(4)
    a, b = rng.random((3, 4, 4)), rng.random((3, 4, 4))
    assert pl.loss_main(Tensor(a), b).item() == pytest.approx(
        float(np.mean((a - b) ** 2)), abs=1e-15)


def test_loss_main_shape_mismatch_rejected():
    with pytest.raises(AutodiffError):
        pl.loss_main(Tensor(np.zeros((2, 4, 4))), np.zeros((2, 4, 5)))


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
    assert pl.dataset_mu(vols).mu_x == pytest.approx(0.0)


def test_dataset_mu_single_sample_is_its_mean():
    rng = np.random.default_rng(6)
    v = rng.random((4, 3, 3))
    expected = float(np.mean(np.abs((v[1:] - v[:-1]).mean(axis=(1, 2)))))
    assert pl.dataset_mu([v]).mu_x == pytest.approx(expected, abs=1e-15)


def test_dataset_mu_two_samples_is_arithmetic_mean():
    ramp = np.stack([np.full((2, 2), float(t)) for t in range(3)])  # mu~ = 1
    flat = np.zeros((3, 2, 2))                                      # mu~ = 0
    assert pl.dataset_mu([ramp, flat]).mu_x == pytest.approx(0.5)


def test_dataset_mu_rejects_empty():
    with pytest.raises(AutodiffError):
        pl.dataset_mu([])


# -- refinement loss -----------------------------------------------------------------

def test_loss_refine_reduces_to_mse_when_lambda_zero():
    rng = np.random.default_rng(7)
    z = rng.random((4, 3, 3))
    z_hat = Tensor(rng.random((4, 3, 3)))
    stats = pl.MuStats(mu_x=0.0)
    assert pl.loss_refine(z_hat, z, stats, 0.0).item() == pytest.approx(
        pl.loss_main(Tensor(z_hat.data), z).item(), abs=1e-15)


def test_loss_refine_hinge_inactive_below_threshold():
    z = np.zeros((4, 3, 3))
    z_hat = Tensor(np.full((4, 3, 3), 0.2))  # constant video: mu = 0
    stats = pl.MuStats(mu_x=0.5)
    assert pl.loss_refine(z_hat, z, stats, 5.0).item() == pytest.approx(
        0.04, abs=1e-12)


def test_loss_refine_penalizes_single_jump_by_hand():
    z = np.zeros((4, 2, 2))
    jump = 0.8
    z_hat_data = np.zeros((4, 2, 2))
    z_hat_data[2:] = jump  # one transition of size `jump`
    stats = pl.MuStats(mu_x=0.3)
    lam = 5.0
    loss = pl.loss_refine(Tensor(z_hat_data), z, stats, lam).item()
    expected = float(np.mean(z_hat_data ** 2)) + lam * (jump - stats.mu_x)
    assert loss == pytest.approx(expected, abs=1e-12)


def test_loss_refine_never_below_loss_main():
    rng = np.random.default_rng(8)
    z = rng.random((4, 3, 3))
    z_hat = rng.random((4, 3, 3))
    stats = pl.MuStats(mu_x=0.01)
    refine = pl.loss_refine(Tensor(z_hat), z, stats, 5.0).item()
    main = pl.loss_main(Tensor(z_hat), z).item()
    assert refine >= main


def test_mu_gradients_flow_through_hinge():
    rng = np.random.default_rng(9)
    from dyncs import autodiff as ad
    z = np.zeros((3, 2, 2))
    stats = pl.MuStats(mu_x=0.0)
    x0 = rng.random((3, 2, 2)) + 0.5

    def f(t):
        return pl.loss_refine(t, z, stats, 2.0)

    assert ad.grad_check(f, Tensor(x0)) < 1e-5


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
    projected = project_kinematic(Trajectory(traj.coords),
                                  kinematic_bounds(_pcfg(12)), tol=1e-8)
    assert np.array_equal(result.trajectory.coords, projected.coords)


def test_training_is_deterministic_given_seed():
    r1, _ = _tiny_train(epochs=2, seed=5)
    r2, _ = _tiny_train(epochs=2, seed=5)
    assert r1.history == r2.history
    assert np.array_equal(r1.trajectory.coords, r2.trajectory.coords)


def test_training_keeps_trajectory_feasible():
    result, _ = _tiny_train(epochs=3)
    assert all(row["max_violation"] <= 1e-6 for row in result.history)


def test_refine_zero_epochs_returns_state_unchanged():
    vols = [gen_phantom(PhantomSpec(grid=(12, 12), frames=8, seed=s))
            for s in range(2)]
    tcfg = pl.TrainConfig(epochs_main=1, epochs_refine=0, seed=0, frames_k=4)
    rcfg = _small_rcfg()
    params = init_recon_params(rcfg, np.random.default_rng(0))
    before = {n: p.data.copy() for n, p in params.items()}
    traj = init_radial(4, 2, 8)
    stats = pl.MuStats(mu_x=0.1)
    result = pl.train_refine(vols, tcfg, stats, _pcfg(12), rcfg, params, traj)
    assert result.history == []
    for name in params:
        assert np.array_equal(params[name].data, before[name])


def test_refine_rejects_wrong_frame_count():
    vols = [np.zeros((6, 12, 12))]
    tcfg = pl.TrainConfig(frames_k=4)
    rcfg = _small_rcfg()
    params = init_recon_params(rcfg, np.random.default_rng(0))
    with pytest.raises(AutodiffError):
        pl.train_refine(vols, tcfg, pl.MuStats(mu_x=0.1), _pcfg(12), rcfg,
                        params, init_radial(4, 2, 8))


def test_refine_with_zero_lambda_is_plain_mse_finetune():
    vols = [gen_phantom(PhantomSpec(grid=(12, 12), frames=8, seed=s))
            for s in range(2)]
    rcfg = _small_rcfg()
    stats = pl.MuStats(mu_x=1e9)  # hinge certainly inactive

    def run(lam, stats_used):
        tcfg = pl.TrainConfig(epochs_main=1, epochs_refine=1, seed=0,
                              frames_k=4, lambda_ref=lam, batch=2)
        params = init_recon_params(rcfg, np.random.default_rng(0))
        return pl.train_refine(vols, tcfg, stats_used, _pcfg(12), rcfg, params,
                               init_radial(4, 2, 8))

    a = run(0.0, pl.MuStats(mu_x=0.0))
    b = run(5.0, stats)
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
    result = pl.train_refine(vols, tcfg, pl.MuStats(mu_x=0.01), _pcfg(12), rcfg,
                             params, traj)
    for name in params:
        assert np.array_equal(result.params[name].data, before[name]), name
    start = project_kinematic(Trajectory(traj.coords), kinematic_bounds(_pcfg(12)),
                              tol=1e-8).coords
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
    stats = pl.MuStats(mu_x=0.01)
    result = pl.train_refine(vols, tcfg, stats, _pcfg(24), rcfg, params,
                             init_radial(4, 2, 12))
    _, val_idx = pl._split_train_val(len(vols), tcfg.val_fraction)
    assert val_idx
    losses = []
    for i in val_idx:
        recon = pl.evaluate_stacked(result.trajectory, result.params, rcfg,
                                    vols[i], 4).reconstruction
        losses.append(pl.loss_refine(Tensor(recon), vols[i], stats,
                                     tcfg.lambda_ref, mode=tcfg.mu_mode).item())
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
    regrid = pl.acquire(z, Tensor(result.trajectory.coords))
    plain, _ = recon_forward(regrid, rcfg, result.params)
    assert np.array_equal(res.reconstruction, plain.data)


def test_stacked_eval_padded_tail_arithmetic(trained_small):
    result, rcfg = trained_small
    z = gen_phantom(PhantomSpec(grid=(24, 24), frames=11, seed=10))
    res = pl.evaluate_stacked(result.trajectory, result.params, rcfg, z, k=4)
    assert res.reconstruction.shape == (11, 24, 24)
    assert len(res.mu) == 10
    # the cropped tail must equal reconstructing the zero-padded window
    padded = np.concatenate([z[8:], np.zeros((1, 24, 24))], axis=0)
    regrid = pl.acquire(padded, Tensor(result.trajectory.coords))
    tail, _ = recon_forward(regrid, rcfg, result.params)
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


# -- end-to-end gradients -------------------------------------------------------------

def test_end_to_end_coordinate_gradients_match_finite_differences():
    from dyncs import autodiff as ad
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
        regrid = pl.acquire(z, c)
        z_hat, _ = recon_forward(regrid, rcfg, params)
        return pl.loss_main(z_hat, z)

    probe = Tensor(coords0.copy(), requires_grad=True)
    f(probe).backward()
    assert np.abs(probe.grad).max() > 0.0
    assert ad.grad_check(f, Tensor(coords0), h=1e-5) < 1e-4
